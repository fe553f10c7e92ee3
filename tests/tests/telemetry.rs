//! Telemetry is observation-only: a seeded exploration serializes to the
//! **byte-identical** JSON document with telemetry enabled or disabled,
//! at any thread count (the zero-perturbation guarantee), and a cached
//! probe stays under a fixed overhead ceiling in optimized builds.

use cocco::prelude::*;

/// Serializes an exploration with its volatile engine statistics zeroed:
/// wall time and thread count differ run to run by construction.
/// Everything else — genome, report, cost, samples, trace, error counter —
/// must be bit-identical.
fn normalized_json(mut exploration: Exploration) -> String {
    exploration.stats = EngineStats::default();
    serde_json::to_string(&exploration).expect("exploration serializes")
}

fn run(method: SearchMethod, threads: u32, telemetry: Option<&Telemetry>) -> String {
    let model = cocco::graph::models::googlenet();
    let mut session = Cocco::new()
        .with_method(method)
        .with_budget(500)
        .with_seed(23)
        .with_engine(EngineConfig::with_threads(threads));
    if let Some(t) = telemetry {
        session = session.with_telemetry(t.clone());
    }
    normalized_json(session.explore(&model).expect("exploration succeeds"))
}

#[test]
fn seeded_runs_are_byte_identical_with_telemetry_on_off_across_threads() {
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let baseline = run(method.clone(), 1, None);
        for threads in [1u32, 4] {
            let plain = run(method.clone(), threads, None);
            assert_eq!(
                baseline, plain,
                "{name}: plain run differs at {threads} threads"
            );
            let telemetry = Telemetry::enabled();
            let observed = run(method.clone(), threads, Some(&telemetry));
            assert_eq!(
                baseline, observed,
                "{name}: telemetry perturbed the run at {threads} threads"
            );
            // The sink really was live during the identical run.
            let snap = telemetry.snapshot();
            assert!(
                snap.counter("engine.evals") > 0,
                "{name}: telemetry recorded nothing at {threads} threads"
            );
            assert!(snap.histogram("search.step_ns").is_some());
            // Every repair's fits calls reached the production counter.
            assert!(
                snap.counter("sim.fits_calls") > 0,
                "{name}: no fits calls counted at {threads} threads"
            );
        }
    }
}

/// Bounds what telemetry may cost on the engine's hottest leaf: a warmed
/// statistics-cache hit plus one `score_single` term. Probes the same
/// subgraph 20 000 times through a disabled handle and through a live
/// sink; both must stay under the same generous 5 µs/probe ceiling, which
/// catches a regression that puts a clock read, lock round-trip or
/// allocation onto the cached path. The cached leaf must also stay
/// silent: after every probe the live sink's event buffer is still empty.
/// A timing check, so it is compiled only into optimized builds; CI runs
/// it with `cargo test --release --test telemetry`.
#[cfg(not(debug_assertions))]
#[test]
fn a_cached_probe_stays_under_the_telemetry_overhead_ceiling() {
    use cocco::telemetry::Stopwatch;
    const PROBES: u32 = 20_000;
    const CEILING_NS: f64 = 5_000.0;
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let members: Vec<_> = model.node_ids().take(12).collect();
    let buffer = BufferConfig::shared(2 << 20);
    for (arm, telemetry) in [
        ("disabled", Telemetry::disabled()),
        ("enabled", Telemetry::enabled()),
    ] {
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        let probe = || {
            let stats = evaluator
                .subgraph_stats(&members)
                .expect("a connected prefix has statistics");
            engine.score_single(&evaluator, &stats, &buffer, EvalOptions::default())
        };
        // Warm the evaluator's statistics cache so every timed probe hits.
        probe();
        let start = Stopwatch::start();
        for _ in 0..PROBES {
            std::hint::black_box(probe());
        }
        let per_probe_ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(PROBES);
        assert!(
            per_probe_ns < CEILING_NS,
            "telemetry ({arm}): cached score_single probe costs {per_probe_ns:.0} ns — \
             something put a clock, lock or allocation on the cached leaf \
             (ceiling {CEILING_NS:.0} ns)"
        );
        assert!(
            telemetry.events().is_empty(),
            "telemetry ({arm}): the cached score_single leaf must emit no events"
        );
    }
}
