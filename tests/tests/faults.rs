//! Fault injection and graceful degradation, end to end: seeded fault
//! plans driven through the public facade must either complete
//! bit-identically to the fault-free run (transparent recoveries) or
//! return a structured error carrying best-so-far — never a panic, a
//! hang, a stranded budget sample, or a stale temp file.

use cocco::prelude::*;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cocco-faults-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Any `*.tmp.*` litter under `dir` — atomic saves must clean up after
/// themselves on every path, including injected failures.
fn stale_temps(dir: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect()
}

#[test]
fn transparent_faults_complete_bit_identically() {
    let dir = temp_dir("transparent");
    let model = cocco::graph::models::googlenet();
    let session = |faults: FaultPlan, tag: &str| {
        Cocco::new()
            .with_budget(300)
            .with_seed(5)
            .with_cache_file(dir.join(format!("{tag}.cache.json")))
            .with_checkpoint_file(dir.join(format!("{tag}.ckpt.json")))
            .with_checkpoint_every(1)
            .with_faults(faults)
            .explore(&model)
            .unwrap()
    };
    let plain = session(FaultPlan::disabled(), "plain");
    // Save-path faults (bounded retry, torn files left for the next load
    // to salvage) are transparent: same cost, genome and trace.
    let rates = FaultRates::none()
        .with(FaultSite::SaveWrite, 0.2)
        .with(FaultSite::SaveTorn, 0.1);
    let plan = FaultPlan::seeded(11, rates);
    let faulty = session(plan.clone(), "faulty");
    assert_eq!(plain.cost, faulty.cost);
    assert_eq!(plain.genome, faulty.genome);
    assert_eq!(plain.trace, faulty.trace);
    assert_eq!(plain.samples, faulty.samples);
    let health = plan.health();
    assert!(
        health.faults_seen() > 0,
        "the plan must actually have fired"
    );
    assert!(health.save_retries > 0, "save faults must be retried");
    assert!(
        stale_temps(&dir).is_empty(),
        "injected save failures must not leak temp files: {:?}",
        stale_temps(&dir)
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn worker_panic_degrades_to_structured_error_with_salvage() {
    let dir = temp_dir("panic");
    let model = cocco::graph::models::googlenet();
    let ckpt = dir.join("run.ckpt.json");
    // A panic rate low enough that the search completes a few
    // generations first (seeded, so the failing step is deterministic).
    let rates = FaultRates::none().with(FaultSite::WorkerPanic, 0.002);
    let plan = FaultPlan::seeded(2, rates);
    let err = Cocco::new()
        .with_budget(2_000)
        .with_seed(9)
        .with_checkpoint_file(&ckpt)
        .with_checkpoint_every(1)
        .with_faults(plan.clone())
        .explore(&model)
        .unwrap_err();
    let Error::WorkerPanic { message, salvage } = err else {
        panic!("expected WorkerPanic, got {err}");
    };
    assert!(message.contains("injected worker panic"), "{message}");
    let salvage = salvage.expect("generations before the fault produce a best-so-far");
    assert!(salvage.cost.is_finite());
    assert!(salvage.genome.partition.validate(&model).is_ok());
    assert!(salvage.samples > 0);
    let health = plan.health();
    assert!(health.is_degraded());
    assert_eq!(health.quarantined_batches, 1);
    assert!(
        health.refunded_samples > 0,
        "quarantined funding must be refunded"
    );
    // The last between-steps checkpoint stays behind so the run can
    // resume; resuming with faults disarmed completes cleanly.
    assert!(ckpt.exists(), "an aborted run must keep its checkpoint");
    let resumed = Cocco::new()
        .with_budget(2_000)
        .with_seed(9)
        .with_checkpoint_file(&ckpt)
        .explore(&model)
        .unwrap();
    assert!(resumed.cost.is_finite());
    assert!(
        resumed.cost <= salvage.cost,
        "resume continues from salvaged progress"
    );
    assert_eq!(
        resumed.trace.len() as u64,
        resumed.samples,
        "no stranded samples"
    );
    assert!(!ckpt.exists(), "a completed resume removes the checkpoint");
    assert!(stale_temps(&dir).is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every injection site guards a recovery path production runs on a real
/// failure. Each site fires through the facade and takes the recovery the
/// README's fault table promises.
#[test]
fn every_fault_site_fires_and_recovers_through_the_facade() {
    let dir = temp_dir("sites");
    let model = cocco::graph::models::googlenet();
    let session = |tag: &str| {
        Cocco::new()
            .with_budget(300)
            .with_seed(5)
            .with_cache_file(dir.join(format!("{tag}.cache.json")))
            .with_checkpoint_file(dir.join(format!("{tag}.ckpt.json")))
            .with_checkpoint_every(1)
    };
    let plain = session("plain").explore(&model).unwrap();
    let matches_plain = |run: &Exploration, tag: &str| {
        assert_eq!(plain.cost, run.cost, "{tag}");
        assert_eq!(plain.genome, run.genome, "{tag}");
        assert_eq!(plain.trace, run.trace, "{tag}");
    };
    for site in FaultSite::ALL {
        let tag = site.name();
        let rate = match site {
            FaultSite::WorkerPanic => 0.005,
            FaultSite::SaveWrite => 0.5,
            FaultSite::SaveTorn | FaultSite::SaveCorrupt => 1.0,
        };
        let plan = FaultPlan::seeded(2, FaultRates::none().with(site, rate));
        let run = session(tag).with_faults(plan.clone()).explore(&model);
        assert!(plan.injected(site) > 0, "{tag} never fired");
        let health = plan.health();
        match site {
            // Quarantine: the batch's samples are refunded and the run
            // aborts with its best-so-far, keeping the last checkpoint so
            // a disarmed resume completes.
            FaultSite::WorkerPanic => {
                let Err(Error::WorkerPanic { salvage, .. }) = run else {
                    panic!("{tag}: expected a WorkerPanic error");
                };
                assert!(salvage.is_some(), "{tag}: nothing salvaged");
                assert_eq!(health.quarantined_batches, 1);
                assert!(health.refunded_samples > 0);
                assert!(health.is_degraded());
                let ckpt = dir.join(format!("{tag}.ckpt.json"));
                assert!(ckpt.exists(), "{tag}: checkpoint lost");
                let resumed = session(tag).explore(&model).unwrap();
                assert_eq!(resumed.trace.len() as u64, resumed.samples);
                assert!(!ckpt.exists(), "{tag}: resume kept its checkpoint");
            }
            // Bounded retry: transparent, and a save that exhausts its
            // attempts degrades the result instead of failing the run.
            FaultSite::SaveWrite => {
                let run = run.unwrap();
                matches_plain(&run, tag);
                assert!(health.save_retries > 0, "{tag}: no retry");
                assert_eq!(run.is_degraded(), health.save_failures > 0, "{tag}");
            }
            // The damaged cache file lands; the next load salvages the
            // entries that still parse and the warm rerun is unchanged.
            FaultSite::SaveTorn | FaultSite::SaveCorrupt => {
                let run = run.unwrap();
                matches_plain(&run, tag);
                assert!(!run.is_degraded(), "{tag}");
                let rerun = session(tag).explore(&model).unwrap();
                matches_plain(&rerun, tag);
                assert!(rerun.health.salvaged_entries > 0, "{tag}: no salvage");
            }
        }
    }
    assert!(stale_temps(&dir).is_empty(), "{:?}", stale_temps(&dir));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_checkpoints_are_structured_errors_never_panics() {
    let dir = temp_dir("ckpt-matrix");
    let model = cocco::graph::models::diamond();
    let path = dir.join("bad.ckpt.json");
    let session = || {
        Cocco::new()
            .with_budget(200)
            .with_seed(7)
            .with_checkpoint_file(&path)
    };
    // A genuine snapshot to mutate: drive the same search the facade
    // would run for a couple of steps, then capture it mid-run.
    let method = SearchMethod::ga().with_seed(7);
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        200,
    );
    let mut driver = method.driver();
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
    let snapshot = SearchSnapshot::capture(&method, &*driver, &ctx);
    let valid = serde_json::to_string(&snapshot).unwrap();

    // Truncated mid-document.
    std::fs::write(&path, &valid[..valid.len() / 2]).unwrap();
    let err = session().explore(&model).unwrap_err();
    assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
    // Arbitrary bad JSON.
    std::fs::write(&path, "{not json at all").unwrap();
    let err = session().explore(&model).unwrap_err();
    assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
    // Old snapshot version.
    let version = |v: u32| format!("\"version\":{v}");
    let current = version(cocco::search::CHECKPOINT_VERSION);
    let old = version(cocco::search::CHECKPOINT_VERSION - 1);
    assert!(valid.contains(&current));
    std::fs::write(&path, valid.replacen(&current, &old, 1)).unwrap();
    let err = session().explore(&model).unwrap_err();
    assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
    // A version-2 file of the retired portfolio method: its method and
    // driver state wrap the GA's in the old `Portfolio` shapes.
    let ga_method = serde_json::to_string(&snapshot.method).unwrap();
    let ga_state = serde_json::to_string(&snapshot.driver).unwrap();
    let ga_outcome = serde_json::to_string(&driver.outcome()).unwrap();
    let portfolio = valid
        .replacen(&current, &version(2), 1)
        .replacen(
            &format!("\"method\":{ga_method}"),
            &format!(
                "\"method\":{{\"Portfolio\":{{\"members\":[{ga_method}],\
                 \"policy\":\"BestAtExhaustion\",\"seed\":7}}}}"
            ),
            1,
        )
        .replacen(
            &format!("\"driver\":{ga_state}"),
            &format!(
                "\"driver\":{{\"Portfolio\":{{\"members\":[{{\"state\":{ga_state},\
                 \"done\":false}}],\"done\":false,\"outcome\":{ga_outcome}}}}}"
            ),
            1,
        );
    assert!(
        portfolio.contains("\"driver\":{\"Portfolio\""),
        "{portfolio}"
    );
    assert!(
        portfolio.contains("\"method\":{\"Portfolio\""),
        "{portfolio}"
    );
    std::fs::write(&path, portfolio).unwrap();
    let err = session().explore(&model).unwrap_err();
    assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
    // Wrong evaluator fingerprint (different accelerator).
    std::fs::write(&path, &valid).unwrap();
    let mut accel = AcceleratorConfig::default();
    accel.mac_cols *= 2;
    let err = session()
        .with_accelerator(accel)
        .explore(&model)
        .unwrap_err();
    assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cache_snapshots_salvage_or_error_never_panic() {
    let dir = temp_dir("cache-matrix");
    let model = cocco::graph::models::googlenet();
    let path = dir.join("cache.json");
    let session = || {
        Cocco::new()
            .with_budget(300)
            .with_seed(5)
            .with_cache_file(&path)
    };
    let cold = session().explore(&model).unwrap();
    let valid = std::fs::read_to_string(&path).unwrap();

    // Truncated mid-array: the parsable prefix of entries is salvaged
    // (cached values are exact, so results stay bit-identical), the rest
    // is recomputed.
    std::fs::write(&path, &valid[..valid.len() * 2 / 3]).unwrap();
    let salvaged = session().explore(&model).unwrap();
    assert_eq!(cold.cost, salvaged.cost);
    assert_eq!(cold.genome, salvaged.genome);
    assert_eq!(cold.trace, salvaged.trace);

    // Structurally hopeless text stays a structured error.
    std::fs::write(&path, "][ nothing to salvage").unwrap();
    let err = session().explore(&model).unwrap_err();
    assert!(matches!(err, Error::CacheFile { .. }), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
