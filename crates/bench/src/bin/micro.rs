//! Hot-path micro-benchmarks plus the engine smoke checks CI runs.
//!
//! Each case is warmed up, then sampled until ~0.25 s or 50 samples and
//! reported as median (min) per iteration. These single-run numbers locate
//! hot spots; end-to-end performance evidence comes from `perfbench/`
//! (workloads and bounds in `BENCHMARK.json`).
//!
//! * `cargo run --release -p cocco-bench --bin micro [-- --threads <n>]` —
//!   the microbenchmarks, then the checks below at full size;
//! * `... micro -- --smoke [--threads <n>]` — the CI smoke: thread parity
//!   of a seeded GA (serial, `n` threads, live telemetry sink: identical
//!   results and engine counters, zero hot-path allocations), the fault
//!   matrix (`{io, panic}` schedules), on the cold 20k-sample GA no cache sweep (roll-ups or
//!   statistics) and pinned work (`fits` calls, subgraph terms, bounded
//!   arena growth, statistics derivations, no stage-3 fallback), nasnet
//!   greedy and DP with no statistics fallback (canonicalize or stage 3)
//!   and pinned work (greedy's subgraph terms, derivations and driver
//!   steps; DP's grown runs and derivations), stepped
//!   (JSON-resumed) vs monolithic parity, the telemetry overhead ceiling
//!   on a cached probe, and the audit gate.

use cocco::prelude::*;
use cocco::telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Times `f`, printing `name: median (min) per iteration`.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up and batch-size calibration: aim for batches of >= 1 ms.
    let mut batch = 1u32;
    loop {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let budget = Duration::from_millis(250);
    let mut samples = Vec::new();
    let run_start = Stopwatch::start();
    while samples.len() < 50 && (run_start.elapsed() < budget || samples.len() < 5) {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(batch));
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "{name:<42} {:>12} (min {})",
        fmt_time(median),
        fmt_time(min)
    );
}

fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// One timed GA run under an explicit engine configuration (optionally
/// with a live telemetry sink); returns wall time plus the outcome
/// fingerprint and engine statistics.
fn ga_run(
    model: &Graph,
    budget: u64,
    population: usize,
    engine: EngineConfig,
    telemetry: Option<&Telemetry>,
) -> (Duration, f64, Option<Genome>, EngineStats) {
    // A fresh evaluator per run so every run starts with cold caches.
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        budget,
    );
    let ctx = match telemetry {
        Some(t) => ctx.with_engine_telemetry(engine, t),
        None => ctx.with_engine(engine),
    };
    let ga = SearchMethod::Ga(GaConfig {
        population,
        ..GaConfig::default()
    })
    .with_seed(42);
    let start = Stopwatch::start();
    let outcome = ga.run(&ctx);
    (
        start.elapsed(),
        outcome.best_cost,
        outcome.best,
        ctx.engine().stats(),
    )
}

/// Thread parity on the seeded GA: `resnet50` serial, at `threads`
/// workers, and at `threads` workers under a live telemetry sink. Asserts
/// bit-identical best cost and genome across the three runs, identical
/// engine counters serial vs parallel (every batch job sees only the
/// cache state from before its batch), cache hits and fresh subgraph
/// scorings, and zero hot-path allocations.
fn engine_bench(smoke: bool, threads: u32) {
    let model = cocco::graph::models::resnet50();
    let (budget, population) = if smoke { (600, 50) } else { (3_000, 100) };
    println!(
        "\n== engine: GA on {} ({} nodes), budget {budget}, population {population}, \
         {} available CPUs ==\n",
        model.name(),
        model.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let serial = EngineConfig::serial();
    let parallel = EngineConfig::with_threads(threads);
    let (serial_wall, serial_cost, serial_best, serial_stats) =
        ga_run(&model, budget, population, serial, None);
    let (parallel_wall, parallel_cost, parallel_best, parallel_stats) =
        ga_run(&model, budget, population, parallel, None);
    // Telemetry is observation only: a live sink must leave the run
    // bit-identical, and it yields the per-batch latency histogram.
    let telemetry = Telemetry::enabled();
    let (telemetry_wall, telemetry_cost, telemetry_best, _) =
        ga_run(&model, budget, population, parallel, Some(&telemetry));
    for (arm, cost, best) in [
        ("parallel", parallel_cost, &parallel_best),
        ("telemetry", telemetry_cost, &telemetry_best),
    ] {
        assert_eq!(serial_cost, cost, "determinism: {arm} best cost differs");
        assert_eq!(&serial_best, best, "determinism: {arm} best genome differs");
    }
    // Every counter but the thread count and wall time must match.
    let counters = |s: EngineStats| EngineStats {
        threads: 0,
        wall_ms: 0.0,
        ..s
    };
    let same = counters(serial_stats) == counters(parallel_stats);
    assert!(same, "engine counters differ at {threads} threads");
    assert!(serial_stats.cache_hits > 0, "GA run never hit the cache");
    assert!(
        serial_stats.subgraph_scorings > 0,
        "no subgraph term scored"
    );
    assert_eq!(
        serial_stats.stats_canonicalize_fallbacks, 0,
        "the warmed scoring hot path must stay allocation-free"
    );
    let latency = telemetry
        .snapshot()
        .histogram("engine.batch.latency_ns")
        .cloned()
        .expect("a GA run dispatches batches");
    println!(
        "serial / {threads} threads   : {:>10} / {:>10}  ({} scorings)",
        fmt_time(serial_wall.as_secs_f64()),
        fmt_time(parallel_wall.as_secs_f64()),
        serial_stats.subgraph_scorings,
    );
    println!(
        "telemetry ({threads} thr)   : {:>10}  ({} batches, p50 {}, p99 {})",
        fmt_time(telemetry_wall.as_secs_f64()),
        latency.count,
        fmt_time(latency.p50() as f64 / 1e9),
        fmt_time(latency.p99() as f64 / 1e9),
    );
    println!(
        "cache                : {} evals, {} hits ({:.0}%), {} roll-ups",
        serial_stats.evals,
        serial_stats.cache_hits,
        serial_stats.hit_rate() * 100.0,
        serial_stats.cache_entries,
    );
    println!(
        "results              : bit-identical serial vs {threads} threads vs telemetry ✓ \
         (identical counters, 0 hot-path allocations)"
    );
}

/// The fault-injection matrix: seeded `{io, panic}` fault schedules ×
/// {1, n} workers, driven through the facade with cache and checkpoint
/// files. The save-path schedule must complete bit-identically to the
/// fault-free baseline; the worker-panic schedule must degrade to a
/// structured error carrying a salvaged best-so-far plus a resumable
/// checkpoint. No cell may hang, abort the process, strand a budget
/// sample, or leak a `*.tmp.*` file.
fn fault_matrix_check(threads: u32) {
    let dir = std::env::temp_dir().join(format!("cocco-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fault-matrix scratch dir");
    let model = cocco::graph::models::googlenet();
    let cells = [1, threads.max(2)];
    let explore = |t: u32, faults: FaultPlan, tag: &str| {
        Cocco::new()
            .with_budget(300)
            .with_seed(5)
            .with_engine(EngineConfig::with_threads(t))
            .with_cache_file(dir.join(format!("{tag}.cache.json")))
            .with_checkpoint_file(dir.join(format!("{tag}.ckpt.json")))
            .with_checkpoint_every(1)
            .with_faults(faults)
            .explore(&model)
    };
    let baseline =
        explore(1, FaultPlan::disabled(), "baseline").expect("the fault-free baseline completes");

    // Transparent schedule: injected save failures retry and torn writes
    // get cleaned up. Save-path draws happen in serial code, so an
    // identically seeded plan fires at the same points in every cell —
    // and every cell must match the fault-free baseline bit for bit.
    let io_rates = FaultRates::none()
        .with(FaultSite::SaveWrite, 0.3)
        .with(FaultSite::SaveTorn, 0.2);
    for t in cells {
        let cell = format!("io_faults, {t} threads");
        let plan = FaultPlan::seeded(11, io_rates);
        let result = explore(t, plan.clone(), &format!("io_faults-{t}"))
            .unwrap_or_else(|e| panic!("{cell}: transparent schedule failed: {e}"));
        assert_eq!(baseline.cost, result.cost, "cost drifted ({cell})");
        assert_eq!(baseline.genome, result.genome, "genome drifted ({cell})");
        assert_eq!(baseline.trace, result.trace, "trace drifted ({cell})");
        let conserved = result.trace.len() as u64 == result.samples;
        assert!(conserved, "stranded budget samples ({cell})");
        assert!(plan.health().save_retries > 0, "never fired ({cell})");
    }

    // Worker-panic schedule: a deterministic mid-run panic. Every cell
    // must return the same structured error with the same salvaged
    // best-so-far, keep its last periodic checkpoint, refund the
    // quarantined batch, and resume to completion once disarmed. The
    // facade saves a checkpoint after every step here, and the seeded
    // fault lands at sample 2800, many generations in.
    let mut panic_reference: Option<(f64, u64)> = None;
    for t in cells {
        let cell = format!("worker_panic, {t} threads");
        let ckpt = dir.join(format!("worker_panic-{t}.ckpt.json"));
        let plan = FaultPlan::seeded(2, FaultRates::none().with(FaultSite::WorkerPanic, 0.0005));
        let session = Cocco::new()
            .with_budget(8_000)
            .with_seed(9)
            .with_engine(EngineConfig::with_threads(t))
            .with_checkpoint_file(&ckpt);
        // The injected panic is caught and quarantined by the engine, but
        // the default hook would still spew a backtrace into the CI log;
        // silence it for just this call, then restore so genuine
        // assertion failures stay loud.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = session
            .clone()
            .with_checkpoint_every(1)
            .with_faults(plan.clone())
            .explore(&model);
        std::panic::set_hook(hook);
        let err = result.expect_err("an injected worker panic must surface as an error");
        let Error::WorkerPanic { salvage, .. } = err else {
            panic!("{cell}: expected WorkerPanic, got {err}");
        };
        let salvage = salvage.expect("generations before the fault leave a best-so-far");
        let observed = (salvage.cost, salvage.samples);
        let reference = *panic_reference.get_or_insert(observed);
        assert_eq!(reference, observed, "salvage drifted ({cell})");
        let health = plan.health();
        assert_eq!(health.quarantined_batches, 1, "not quarantined ({cell})");
        assert!(health.refunded_samples > 0, "funding not refunded ({cell})");
        assert!(ckpt.exists(), "aborted run lost its checkpoint ({cell})");
        let resumed = session
            .explore(&model)
            .unwrap_or_else(|e| panic!("{cell}: disarmed resume failed: {e}"));
        assert!(resumed.cost <= salvage.cost, "resume regressed ({cell})");
        let conserved = resumed.trace.len() as u64 == resumed.samples;
        assert!(conserved, "stranded samples after resume ({cell})");
        assert!(!ckpt.exists(), "resume kept its checkpoint ({cell})");
    }

    let stale: Vec<String> = std::fs::read_dir(&dir)
        .expect("fault-matrix scratch dir is readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(stale.is_empty(), "leaked temp files: {stale:?}");
    // cocco-audit: allow(R2) scratch cleanup; every assertion above already passed
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "fault matrix         : {{io,panic}} schedules × {{1,{}}} threads ✓ \
         (bit-identical or structured+salvaged, 0 stranded samples, 0 temp leaks)",
        threads.max(2)
    );
}

/// Measures the per-probe key cost: fingerprinting a resnet50 partition's
/// subgraphs and folding them into a partition-level `EvalKey` (what every
/// cache probe pays — no allocation).
fn key_build_bench() {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
    let subgraphs = partition.subgraphs();
    let buffer = BufferConfig::shared(2 << 20);
    let fingerprint = evaluator.fingerprint();
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Stopwatch::start();
        for _ in 0..4096 {
            std::hint::black_box(cocco::engine::eval_key(
                fingerprint,
                &subgraphs,
                &buffer,
                EvalOptions::default(),
            ));
        }
        samples.push(start.elapsed().as_secs_f64() / 4096.0);
    }
    samples.sort_by(f64::total_cmp);
    println!(
        "engine/eval_key_build_resnet50_depth5      {:>12} (zero allocations)",
        fmt_time(samples[samples.len() / 2])
    );
}

fn full_suite() {
    println!("== micro-benchmarks (median per iteration) ==\n");

    {
        let model = cocco::graph::models::googlenet();
        let members: Vec<_> = model.node_ids().collect();
        let mapper = Mapper::default();
        bench("tiling/derive_scheme_googlenet_whole", || {
            derive_scheme(&model, &members, &mapper).unwrap()
        });
    }

    {
        let model = cocco::graph::models::resnet50();
        let members: Vec<_> = model.node_ids().take(12).collect();
        bench("evaluator/subgraph_stats_cold", || {
            // A fresh evaluator per iteration so the cache never warms.
            let eval = Evaluator::new(&model, AcceleratorConfig::default());
            eval.subgraph_stats(&members).unwrap()
        });
        let eval = Evaluator::new(&model, AcceleratorConfig::default());
        eval.subgraph_stats(&members).unwrap();
        bench("evaluator/subgraph_stats_cached", || {
            eval.subgraph_stats(&members).unwrap()
        });
        let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
        let subgraphs = partition.subgraphs();
        let buffer = BufferConfig::shared(2 << 20);
        bench("evaluator/eval_partition_depth5", || {
            eval.eval_partition(&subgraphs, &buffer, EvalOptions::default())
                .unwrap()
        });
    }

    {
        // Production traffic: GA-style edits (modify-node, split-subgraph,
        // merge-subgraph) of the last repaired randwire-a partition, repaired
        // as a hinted offspring is: seeded by the parent, with the delta.
        use cocco::partition::{repair_seeded, ParentSeed};
        let model = cocco::graph::models::randwire_a();
        let fits = |m: &[NodeId]| m.len() <= 16;
        let mut rng = StdRng::seed_from_u64(42);
        let mut parent = repair(&model, Partition::connected_groups(&model, 8), &fits);
        let mut walk = Vec::new();
        while walk.len() < 64 {
            let mut p = parent.clone();
            let node = NodeId::from_index(rng.gen_range(0..model.len()));
            let (groups, fresh) = (p.subgraphs(), p.fresh_id());
            let near = model.producers(node).iter().chain(model.consumers(node));
            let near: Vec<u32> = near.map(|&v| p.subgraph_of(v)).chain([fresh]).collect();
            let (own, one) = (&groups[p.subgraph_of(node) as usize], [node]);
            let (moved, into) = match rng.gen_range(0..3) {
                0 => (&one[..], near[rng.gen_range(0..near.len())]),
                1 if own.len() >= 2 => (&own[rng.gen_range(1..own.len())..], fresh),
                _ => (&own[..], near[rng.gen_range(0..near.len() - 1)]),
            };
            moved.iter().for_each(|&m| p.assign(m, into));
            let delta = PartitionDelta::between(&parent, &p);
            parent = repair(&model, p.clone(), &fits);
            walk.push((p, delta));
        }
        let (mut i, seed) = (0, Some(ParentSeed::Fitted));
        bench("repair/ga_walk_randwire_a", || {
            i += 1;
            let (p, mut delta) = walk[i % walk.len()].clone();
            repair_seeded(&model, p, &fits, &mut delta, seed)
        });
    }

    key_build_bench();
}

/// Stepped-vs-monolithic parity: the same seeded GA through `run()` (now a
/// thin driver loop) and through an explicit step loop that round-trips the
/// whole `SearchSnapshot` through JSON at a mid step and resumes on a fresh
/// context. Asserts bit-identical best cost, genome and trace.
fn stepped_parity_check(threads: u32) {
    fn make_ctx<'a>(
        evaluator: &'a Evaluator<'a>,
        model: &'a Graph,
        threads: u32,
    ) -> SearchContext<'a> {
        SearchContext::new(
            model,
            evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        )
        .with_engine(EngineConfig::with_threads(threads))
    }
    let model = cocco::graph::models::googlenet();
    let method = SearchMethod::ga().with_seed(23);
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let ctx = make_ctx(&evaluator, &model, threads);
    let monolithic = method.run(&ctx);
    let monolithic_trace = ctx.trace().points();

    // Stepped arm: drive 3 steps, snapshot through JSON, resume fresh.
    let snapshot = {
        let ctx = make_ctx(&evaluator, &model, threads);
        let mut driver = method.driver();
        for _ in 0..3 {
            match driver.next_batch(&ctx) {
                Step::Evaluate(mut batch) => {
                    ctx.evaluate_chunks(&mut batch);
                    driver.absorb(&ctx, batch);
                }
                Step::Continue => {}
                Step::Done => break,
            }
        }
        SearchSnapshot::capture(&method, &*driver, &ctx)
    };
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let snapshot: SearchSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    let ctx = make_ctx(&evaluator, &model, threads);
    snapshot.replay_into(&ctx);
    let mut driver = method
        .driver_from_state(&snapshot.driver)
        .expect("state matches method");
    let stepped = run_driver(&mut *driver, &ctx);
    assert_eq!(
        monolithic.best_cost, stepped.best_cost,
        "stepped parity: cost"
    );
    assert_eq!(monolithic.best, stepped.best, "stepped parity: genome");
    assert_eq!(
        monolithic.samples, stepped.samples,
        "stepped parity: samples"
    );
    assert_eq!(
        monolithic_trace,
        ctx.trace().points(),
        "stepped parity: trace"
    );
    println!("stepped parity       : run() == stepped+JSON-resumed GA ✓ ({threads} threads)");
}

/// Bounds what telemetry may cost on the engine's hottest leaf: a warmed
/// statistics-cache hit plus one `score_single` term.
/// Probes the same subgraph 20 000 times through a disabled handle and
/// through a live sink; both must stay under the same generous 5 µs/probe
/// ceiling, which catches a regression that puts a clock read, lock
/// round-trip or allocation onto the cached path. The cached leaf must
/// also stay silent: after every probe the live sink's event buffer is
/// still empty.
fn telemetry_overhead_check() {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let members: Vec<_> = model.node_ids().take(12).collect();
    let buffer = BufferConfig::shared(2 << 20);
    const PROBES: u32 = 20_000;
    const CEILING_NS: f64 = 5_000.0;
    println!();
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
        // Warm the evaluator's stats cache so every timed probe is a hit.
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
        println!(
            "telemetry/cached_leaf_{arm:<13}         {:>12} per probe (< {} ceiling)",
            fmt_time(per_probe_ns / 1e9),
            fmt_time(CEILING_NS / 1e9),
        );
    }
}

/// The cold workload at default cache capacities: a default-config GA on
/// `randwire-a`, 20 000 samples, seed 1, on the evaluator and session the
/// facade builds (paper accelerator, shared-buffer space, Formula-2
/// objective), with a live telemetry sink (observation only). One run
/// feeds two checks: [`cache_sweep_check`] and [`repair_work_check`].
fn cold_ga_checks(threads: u32) {
    let model = cocco::graph::models::randwire_a();
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
    assert!(outcome.best.is_some(), "the cold GA run finds a design");
    cache_sweep_check(&ctx, &evaluator, threads);
    repair_work_check(&ctx.engine().metrics(), threads);
    stats_work_check(&evaluator, threads);
}

/// A cache sweep that finds more live entries than its budget sheds
/// touched entries as readily as stale ones; this pins that no sweep
/// fires at all on the cold run, in the engine's roll-up cache or in the
/// evaluator's statistics cache.
fn cache_sweep_check(ctx: &SearchContext<'_>, evaluator: &Evaluator<'_>, threads: u32) {
    let stats = ctx.engine().stats();
    assert_eq!(
        stats.cache_evictions, 0,
        "the roll-up cache swept at default capacity ({} entries)",
        stats.cache_entries
    );
    assert_eq!(
        evaluator.stats_cache_evictions(),
        0,
        "the statistics cache swept at default capacity ({} derivations)",
        evaluator.stats_derivations()
    );
    println!(
        "cache sweep          : 0 evictions at default capacity ({} roll-ups, {} statistics, {threads} threads)",
        stats.cache_entries,
        evaluator.stats_derivations()
    );
}

/// Statistics work pins of the cold run: workers that miss the same entry
/// derive it once, so the derivation count is the same at every thread
/// count, and the rate proof covers every derivation, so none runs stage
/// 3's propagation.
fn stats_work_check(evaluator: &Evaluator<'_>, threads: u32) {
    const STATS_DERIVATIONS: u64 = 2_727;
    assert_eq!(
        evaluator.stats_derivations(),
        STATS_DERIVATIONS,
        "statistics derivations moved"
    );
    assert_eq!(
        evaluator.stats_rate_fallbacks(),
        0,
        "a derivation fell back to stage 3's propagation"
    );
    println!(
        "statistics work      : {STATS_DERIVATIONS} derivations ({} lookups missed), 0 stage-3 fallbacks ({threads} threads)",
        evaluator.stats_cache_misses()
    );
}

/// Work pins of the cold run's per-candidate path — deterministic counts,
/// so a work regression shows without timing noise: the `fits` calls
/// repair makes and the subgraph terms scoring computes (both the same at
/// every thread count), and layout-arena growth bounded by warm-up, a few
/// grows per scratch slot however many candidates the slots serve.
fn repair_work_check(metrics: &MetricsSnapshot, threads: u32) {
    const FITS_CALLS: u64 = 279_434;
    const SUBGRAPH_SCORINGS: u64 = 815_212;
    const GROWS_PER_SLOT: u64 = 4;
    let fits_calls = metrics.counter("sim.fits_calls");
    let scorings = metrics.counter("engine.subgraph.scorings");
    let grows = metrics.counter("engine.arena.grows");
    let slots = u64::from(threads) + 1;
    assert_eq!(fits_calls, FITS_CALLS, "repair's fits calls moved");
    assert_eq!(scorings, SUBGRAPH_SCORINGS, "scored subgraph terms moved");
    assert!(
        grows <= GROWS_PER_SLOT * slots,
        "{grows} layout-arena grows over {slots} slots (at most {GROWS_PER_SLOT} each)"
    );
    println!(
        "repair work          : {fits_calls} fits calls, {scorings} subgraph terms, {grows} arena grows, {} parent repairs skipped ({threads} threads)",
        metrics.counter("engine.arena.repair_skips")
    );
}

/// The analytic baselines on `nasnet`, the largest registry graph, under
/// the facade's defaults — deterministic counts, so a regression shows
/// without timing noise. Neither method may hit the statistics
/// canonicalize fallback (both hand the cache ascending member lists) or
/// run stage 3's rate propagation, in a derivation or a grown run (the
/// rate proof covers their sets); greedy fusion, which keeps its groups'
/// and edges' terms across its steps, must score exactly `GREEDY_TERMS`
/// subgraph terms and derive exactly `GREEDY_DERIVATIONS` statistics (it
/// scored 258,826 terms when every step re-scored every quotient edge) in
/// exactly `GREEDY_STEPS` driver steps (`search.step_ns` spans);
/// and depth-DP must grow each of its `DP_GROWN_RUNS` runs' statistics
/// from the last run's, deriving from scratch only the `DP_SUBGRAPHS`
/// subgraphs of its result.
fn baselines_check(threads: u32) {
    const GREEDY_TERMS: u64 = 3_804;
    const GREEDY_DERIVATIONS: u64 = 3_999;
    // One step per merge, plus the step that scores the converged result.
    const GREEDY_STEPS: u64 = 431;
    const DP_GROWN_RUNS: u64 = 4_101;
    const DP_SUBGRAPHS: u64 = 142;
    let model = cocco::graph::models::nasnet();
    for method in [SearchMethod::greedy(), SearchMethod::depth_dp()] {
        let name = method.name();
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
        let steps = telemetry
            .snapshot()
            .histogram("search.step_ns")
            .map_or(0, |h| h.count);
        assert!(outcome.best.is_some(), "{name} finds a design on nasnet");
        let stats = ctx.engine().stats();
        assert_eq!(
            evaluator.stats_canonicalize_fallbacks(),
            0,
            "{name} handed the statistics cache an unsorted member list"
        );
        assert_eq!(
            evaluator.stats_rate_fallbacks(),
            0,
            "{name} fell back to stage 3's propagation"
        );
        if matches!(method, SearchMethod::Greedy) {
            assert_eq!(
                stats.subgraph_scorings, GREEDY_TERMS,
                "{name} scored a different number of subgraph terms on nasnet"
            );
            assert_eq!(
                evaluator.stats_derivations(),
                GREEDY_DERIVATIONS,
                "{name} derived a different number of statistics on nasnet"
            );
            assert_eq!(
                steps, GREEDY_STEPS,
                "{name} took a different number of driver steps on nasnet"
            );
        } else {
            assert_eq!(
                evaluator.stats_grown(),
                DP_GROWN_RUNS,
                "{name} grew a different number of runs' statistics on nasnet"
            );
            assert_eq!(
                evaluator.stats_derivations(),
                DP_SUBGRAPHS,
                "{name} derived statistics from scratch beyond its result's subgraphs"
            );
        }
        println!(
            "baseline {name:<18}: nasnet, {steps} steps, {} subgraph terms, {} derivations, {} grown, 0 fallbacks",
            stats.subgraph_scorings,
            evaluator.stats_derivations(),
            evaluator.stats_grown()
        );
    }
}

/// Runs the workspace determinism audit in-process and prints its wall
/// time — the smoke's cheap proof that the gate stays both green and
/// fast enough to run on every CI push.
fn audit_gate_check() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let start = Stopwatch::start();
    let report = cocco_audit::audit_workspace(&root).expect("workspace audit runs");
    let wall_ms = start.elapsed_ms();
    assert!(
        report.is_clean(),
        "workspace audit found violations:\n{}",
        report.render_human()
    );
    println!(
        "\naudit gate: clean ({} files scanned, {} suppressed, {} path-allowed) in {wall_ms:.1} ms",
        report.files_scanned, report.suppressed, report.allowed
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut threads: u32 = 4;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--threads" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    std::process::exit(2);
                });
                threads = value.parse().unwrap_or_else(|e| {
                    eprintln!("bad --threads `{value}`: {e}");
                    std::process::exit(2);
                });
            }
            bad => {
                eprintln!("unknown argument `{bad}` (supported: --smoke, --threads <n>)");
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    if smoke {
        engine_bench(true, threads);
        println!();
        fault_matrix_check(threads);
        cold_ga_checks(threads);
        baselines_check(threads);
        stepped_parity_check(threads);
        telemetry_overhead_check();
        audit_gate_check();
        println!("\nsmoke OK");
        return;
    }

    full_suite();
    println!();
    stepped_parity_check(threads);
    engine_bench(false, threads);
    telemetry_overhead_check();
}
