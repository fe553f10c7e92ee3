//! Checkpoint/resume bit-identity: every method of the registry,
//! interrupted mid-run at a pseudo-random step, with its `DriverState`
//! round-tripped through JSON, resumes to the exact outcome (best cost,
//! genome, trace) of the uninterrupted seeded run — at 1 and 4 worker
//! threads.

use cocco::prelude::*;

/// The methods under test: every searcher of the registry, the two-step
/// with both capacity samplings.
fn methods() -> Vec<(SearchMethod, &'static str)> {
    vec![
        (SearchMethod::ga().with_seed(17), "ga"),
        (SearchMethod::sa().with_seed(17), "sa"),
        (SearchMethod::greedy(), "greedy"),
        (SearchMethod::depth_dp(), "dp"),
        (SearchMethod::exhaustive(), "exhaustive"),
        (
            SearchMethod::TwoStep(TwoStep::random().with_per_candidate(120).with_seed(17)),
            "twostep-random",
        ),
        (
            SearchMethod::TwoStep(TwoStep::grid().with_per_candidate(120).with_seed(17)),
            "twostep-grid",
        ),
    ]
}

fn make_ctx<'a>(
    g: &'a cocco::graph::Graph,
    eval: &'a Evaluator<'a>,
    threads: u32,
) -> SearchContext<'a> {
    SearchContext::new(
        g,
        eval,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        480,
    )
    .with_engine(EngineConfig::with_threads(threads))
}

type RunResult = (f64, Option<Genome>, u64, Vec<TracePoint>);

/// Runs the driver to completion.
fn run_to_completion(
    method: &SearchMethod,
    g: &cocco::graph::Graph,
    eval: &Evaluator<'_>,
    threads: u32,
) -> RunResult {
    let ctx = make_ctx(g, eval, threads);
    let out = method.run(&ctx);
    (out.best_cost, out.best, out.samples, ctx.trace().points())
}

/// Runs the driver for `interrupt_at` steps, snapshots through JSON, then
/// resumes on a **fresh context** (budget and trace replayed) to the end.
fn run_interrupted(
    method: &SearchMethod,
    g: &cocco::graph::Graph,
    eval: &Evaluator<'_>,
    threads: u32,
    interrupt_at: u64,
) -> RunResult {
    let snapshot = {
        let ctx = make_ctx(g, eval, threads);
        let mut driver = method.driver();
        let mut steps = 0u64;
        loop {
            if steps >= interrupt_at {
                break;
            }
            match driver.next_batch(&ctx) {
                Step::Evaluate(mut batch) => {
                    ctx.evaluate_chunks(&mut batch);
                    driver.absorb(&ctx, batch);
                }
                Step::Continue => {}
                Step::Done => break,
            }
            steps += 1;
        }
        SearchSnapshot::capture(method, &*driver, &ctx)
        // The interrupted context, driver and any in-flight state die here.
    };

    // Round-trip the whole snapshot (driver state, trace, coordinates)
    // through its JSON encoding — what a checkpoint file stores.
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let snapshot: SearchSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    assert_eq!(snapshot.fingerprint, eval.fingerprint());
    assert_eq!(&snapshot.method, method);

    let ctx = make_ctx(g, eval, threads);
    snapshot.replay_into(&ctx);
    let mut driver = method
        .driver_from_state(&snapshot.driver)
        .expect("state matches method");
    let out = run_driver(&mut *driver, &ctx);
    (out.best_cost, out.best, out.samples, ctx.trace().points())
}

#[test]
fn every_method_resumes_bit_identically_mid_run() {
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    for (method, name) in methods() {
        for threads in [1u32, 4] {
            let reference = run_to_completion(&method, &g, &eval, threads);
            // A cheap deterministic per-(method, threads) pseudo-random
            // interrupt point: somewhere in the first handful of steps,
            // never step 0 alone.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in name.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
            }
            let interrupt_at = 1 + (h.wrapping_add(u64::from(threads)) % 5);
            let resumed = run_interrupted(&method, &g, &eval, threads, interrupt_at);
            assert_eq!(
                reference.0, resumed.0,
                "{name}@{threads}t: best cost diverged after resume (step {interrupt_at})"
            );
            assert_eq!(
                reference.1, resumed.1,
                "{name}@{threads}t: best genome diverged after resume"
            );
            assert_eq!(
                reference.2, resumed.2,
                "{name}@{threads}t: samples diverged after resume"
            );
            assert_eq!(
                reference.3, resumed.3,
                "{name}@{threads}t: trace diverged after resume"
            );
        }
    }
}

#[test]
fn snapshot_of_a_finished_driver_resumes_to_the_same_outcome() {
    // Resuming a completed run is a no-op: the driver reports Done
    // immediately and hands back the stored outcome.
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let method = SearchMethod::ga().with_seed(3);
    let ctx = make_ctx(&g, &eval, 1);
    let mut driver = method.driver();
    let out = run_driver(&mut *driver, &ctx);
    let snapshot = SearchSnapshot::capture(&method, &*driver, &ctx);
    let json = serde_json::to_string(&snapshot).unwrap();
    let snapshot: SearchSnapshot = serde_json::from_str(&json).unwrap();
    let ctx2 = make_ctx(&g, &eval, 1);
    snapshot.replay_into(&ctx2);
    let mut resumed = method.driver_from_state(&snapshot.driver).unwrap();
    let again = run_driver(&mut *resumed, &ctx2);
    assert_eq!(out.best_cost, again.best_cost);
    assert_eq!(out.best, again.best);
    assert_eq!(out.samples, again.samples);
    assert_eq!(ctx.trace().points(), ctx2.trace().points());
}

#[test]
fn driver_states_round_trip_through_json_for_every_method() {
    // Structural check: DriverState of every method serializes and
    // deserializes to an equal value (including infinite costs).
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    for (method, name) in methods() {
        let ctx = make_ctx(&g, &eval, 1);
        let mut driver = method.driver();
        // Advance a couple of steps so the state is non-trivial.
        for _ in 0..2 {
            match driver.next_batch(&ctx) {
                Step::Evaluate(mut batch) => {
                    ctx.evaluate_chunks(&mut batch);
                    driver.absorb(&ctx, batch);
                }
                Step::Continue => {}
                Step::Done => break,
            }
        }
        let state = driver.state();
        let json = serde_json::to_string(&state).unwrap_or_else(|e| panic!("{name}: {e}"));
        let back: DriverState =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(state, back, "{name}: state changed across the round-trip");
    }
}

#[test]
fn a_mid_run_two_step_checkpoint_holds_one_ga_state() {
    // A finished capacity candidate is folded into the outcome, so however
    // many candidates have run, a checkpoint carries only the live one's
    // inner GA.
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let method = SearchMethod::TwoStep(TwoStep::random().with_per_candidate(120).with_seed(17));
    let ctx = make_ctx(&g, &eval, 1);
    let mut driver = method.driver();
    // Past two candidates' budgets: the third one is running.
    while ctx.budget().used() <= 240 {
        assert!(
            cocco::search::drive_step(&mut *driver, &ctx),
            "finished early"
        );
    }
    let snapshot = SearchSnapshot::capture(&method, &*driver, &ctx);
    // A GA state's population is a list; the GA configuration's a number.
    let json = serde_json::to_string(&snapshot).unwrap();
    assert_eq!(json.matches("\"population\":[").count(), 1, "{json}");
}
