//! Work pins: deterministic counts of the work a seeded search does, so a
//! work regression shows without timing noise. Each count is the same at
//! every engine thread count. A change that moves a pin on purpose (a new
//! GA operator, a different merge order) updates the constant here, with a
//! CHANGES.md line saying why.

use cocco::prelude::*;
use cocco_tests::ENGINE_THREADS;

/// The cold workload at default cache capacities: a default-config GA on
/// `randwire-a`, 20 000 samples, seed 1, on the evaluator and session the
/// facade builds (paper accelerator, shared-buffer space, Formula-2
/// objective), with a live telemetry sink (observation only).
///
/// * Repair makes exactly `FITS_CALLS` `fits` calls and scoring computes
///   exactly `SUBGRAPH_SCORINGS` subgraph terms.
/// * Layout-arena growth is bounded by warm-up: at most `GROWS_PER_SLOT`
///   grows per scratch slot, however many candidates the slots serve.
/// * Workers that miss the same statistics entry derive it once, so there
///   are exactly `STATS_DERIVATIONS` derivations, and the rate proof
///   covers every one, so none runs stage 3's propagation.
/// * No cache sweep fires, in the engine's roll-up cache or in the
///   evaluator's statistics cache: a sweep that finds more live entries
///   than its budget sheds touched entries as readily as stale ones.
#[test]
fn cold_ga_work_is_pinned_at_every_thread_count() {
    const FITS_CALLS: u64 = 279_434;
    const SUBGRAPH_SCORINGS: u64 = 815_212;
    const GROWS_PER_SLOT: u64 = 4;
    const STATS_DERIVATIONS: u64 = 2_727;
    let model = cocco::graph::models::randwire_a();
    for threads in ENGINE_THREADS {
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            20_000,
        )
        .with_engine_telemetry(EngineConfig::with_threads(threads), &telemetry);
        let outcome = SearchMethod::ga().with_seed(1).run(&ctx);
        assert!(outcome.best.is_some(), "no design at {threads} threads");
        let metrics = ctx.engine().metrics();
        assert_eq!(
            metrics.counter("sim.fits_calls"),
            FITS_CALLS,
            "repair's fits calls moved at {threads} threads"
        );
        assert_eq!(
            metrics.counter("engine.subgraph.scorings"),
            SUBGRAPH_SCORINGS,
            "scored subgraph terms moved at {threads} threads"
        );
        let grows = metrics.counter("engine.arena.grows");
        let slots = u64::from(threads) + 1;
        assert!(
            grows <= GROWS_PER_SLOT * slots,
            "{grows} layout-arena grows over {slots} slots (at most {GROWS_PER_SLOT} each)"
        );
        assert_eq!(
            evaluator.stats_derivations(),
            STATS_DERIVATIONS,
            "statistics derivations moved at {threads} threads"
        );
        assert_eq!(
            evaluator.stats_rate_fallbacks(),
            0,
            "a derivation fell back to stage 3's propagation at {threads} threads"
        );
        let stats = ctx.engine().stats();
        assert_eq!(
            stats.cache_evictions, 0,
            "the roll-up cache swept at default capacity ({} entries, {threads} threads)",
            stats.cache_entries
        );
        assert_eq!(
            evaluator.stats_cache_evictions(),
            0,
            "the statistics cache swept at default capacity ({threads} threads)"
        );
    }
}

/// The analytic baselines on `nasnet`, the largest registry graph, under
/// the facade's defaults. Neither method may hit the statistics
/// canonicalize fallback (both hand the cache ascending member lists) or
/// run stage 3's rate propagation, in a derivation or a grown run (the
/// rate proof covers their sets).
///
/// * Greedy fusion keeps its groups' and edges' terms across its steps:
///   it scores exactly `GREEDY_TERMS` subgraph terms (258,826 when every
///   step re-scored every quotient edge) and derives exactly
///   `GREEDY_DERIVATIONS` statistics in exactly `GREEDY_STEPS` driver
///   steps (`search.step_ns` spans): one per merge, plus the step that
///   scores the converged result.
/// * Depth-DP grows each of its `DP_GROWN_RUNS` runs' statistics from the
///   last run's, deriving from scratch only the `DP_SUBGRAPHS` subgraphs
///   of its result.
#[test]
fn nasnet_baseline_work_is_pinned_at_every_thread_count() {
    const GREEDY_TERMS: u64 = 3_804;
    const GREEDY_DERIVATIONS: u64 = 3_999;
    const GREEDY_STEPS: u64 = 431;
    const DP_GROWN_RUNS: u64 = 4_101;
    const DP_SUBGRAPHS: u64 = 142;
    let model = cocco::graph::models::nasnet();
    for threads in ENGINE_THREADS {
        for method in [SearchMethod::greedy(), SearchMethod::depth_dp()] {
            let at = format!("{} on nasnet, {threads} threads", method.name());
            let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
            let telemetry = Telemetry::enabled();
            let ctx = SearchContext::new(
                &model,
                &evaluator,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                0,
            )
            .with_engine_telemetry(EngineConfig::with_threads(threads), &telemetry);
            let outcome = method.run(&ctx);
            assert!(outcome.best.is_some(), "no design ({at})");
            assert_eq!(
                evaluator.stats_canonicalize_fallbacks(),
                0,
                "an unsorted member list reached the statistics cache ({at})"
            );
            assert_eq!(
                evaluator.stats_rate_fallbacks(),
                0,
                "a derivation fell back to stage 3's propagation ({at})"
            );
            if matches!(method, SearchMethod::Greedy) {
                let steps = telemetry
                    .snapshot()
                    .histogram("search.step_ns")
                    .map_or(0, |h| h.count);
                assert_eq!(
                    ctx.engine().stats().subgraph_scorings,
                    GREEDY_TERMS,
                    "scored subgraph terms moved ({at})"
                );
                assert_eq!(
                    evaluator.stats_derivations(),
                    GREEDY_DERIVATIONS,
                    "statistics derivations moved ({at})"
                );
                assert_eq!(steps, GREEDY_STEPS, "driver steps moved ({at})");
            } else {
                assert_eq!(
                    evaluator.stats_grown(),
                    DP_GROWN_RUNS,
                    "grown runs moved ({at})"
                );
                assert_eq!(
                    evaluator.stats_derivations(),
                    DP_SUBGRAPHS,
                    "derivations beyond the result's subgraphs ({at})"
                );
            }
        }
    }
}
