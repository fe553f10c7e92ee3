//! Telemetry is observation-only: a seeded exploration serializes to the
//! **byte-identical** JSON document with telemetry enabled or disabled,
//! at any thread count (ISSUE: the zero-perturbation guarantee).

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
