//! The end-to-end framework driver (paper Figure 10).

use crate::error::{Error, SalvagedBest};
use cocco_engine::{CacheSnapshot, EngineConfig, EngineStats, EvalKey, SnapshotOrigin};
use cocco_faults::{FaultPlan, FaultSite, HealthReport};
use cocco_graph::Graph;
use cocco_search::{
    drive_step, BufferSpace, GaConfig, Objective, SearchContext, SearchMethod, SearchOutcome,
    SearchSnapshot, Trace, CHECKPOINT_VERSION,
};
use cocco_sim::{AcceleratorConfig, EvalOptions, Evaluator, PartitionReport};
use cocco_telemetry::{Phase, Stopwatch, Telemetry};
use serde::{Deserialize, Serialize};

pub use cocco_search::Genome;

/// Result of one co-exploration run: the recommended memory configuration,
/// the graph-execution strategy (partition), its performance evaluation and
/// the full evaluation trace.
///
/// Serializes to JSON (and back) via `serde_json`, so explorations can be
/// archived, diffed and post-processed outside the process that ran them.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Exploration {
    /// The best genome: partition + buffer configuration.
    pub genome: Genome,
    /// Full performance report of the best genome.
    pub report: PartitionReport,
    /// Objective cost of the best genome.
    pub cost: f64,
    /// Evaluations spent.
    pub samples: u64,
    /// `false` when the method gave up before exploring its whole space
    /// (e.g. enumeration hitting its state budget — the paper's "cannot
    /// complete within a reasonable time").
    pub completed: bool,
    /// Evaluator errors the search pipeline folded into "does not
    /// fit"/infinite cost. Non-zero on a well-formed run means a
    /// configuration bug, not a genuinely infeasible design point.
    pub infeasible_errors: u64,
    /// Evaluation-engine statistics: scoring requests, cache hits,
    /// batch wall time and worker-thread count.
    pub stats: EngineStats,
    /// Every recorded evaluation, for convergence (Fig. 12) and
    /// distribution (Fig. 13) studies.
    pub trace: Trace,
    /// Set when writing the [`Cocco::with_cache_file`] snapshot failed
    /// after the exploration itself succeeded. Persistence is a warm-start
    /// optimization, so a save failure never discards the result — it is
    /// reported here instead. (A *load* failure, i.e. an unusable existing
    /// cache file, still fails [`Cocco::explore`] up front.)
    pub cache_save_error: Option<String>,
    /// Set when writing a [`Cocco::with_checkpoint_file`] snapshot failed
    /// mid-run. Checkpointing is resilience, not correctness: a save
    /// failure never aborts the exploration — the last failure is
    /// reported here. (An unusable *existing* checkpoint still fails
    /// [`Cocco::explore`] up front with [`Error::Checkpoint`].)
    pub checkpoint_save_error: Option<String>,
    /// Fault and recovery accounting for the run: injected faults (all
    /// zero unless a [`Cocco::with_faults`] plan was armed) next to the
    /// recovery work the pipeline actually performed — quarantines,
    /// refunds, save retries, snapshot salvage.
    pub health: HealthReport,
}

impl Exploration {
    /// `true` when the run completed but carries visible scar tissue: a
    /// quarantined batch, an exhausted save retry, or a failed
    /// cache/checkpoint save. Transparent recoveries (successful save
    /// retries, snapshot salvage) do not count — they changed nothing the
    /// caller can observe besides counters.
    pub fn is_degraded(&self) -> bool {
        self.health.is_degraded()
            || self.cache_save_error.is_some()
            || self.checkpoint_save_error.is_some()
    }
}

/// High-level driver: model + hardware description + memory design space +
/// search method in, recommended configuration + schedule + evaluation out.
///
/// Any search method of the registry ([`with_method`](Cocco::with_method))
/// runs through the same path: its [`SearchMethod::driver`] stepped by
/// [`drive_step`]. The defaults reproduce the paper's headline setup
/// (genetic co-exploration, shared-buffer space, energy-capacity
/// objective). Drop down to [`SearchContext`] and [`SearchMethod::run`]
/// for custom experiment harnesses.
///
/// # Examples
///
/// ```
/// use cocco::prelude::*;
///
/// # fn main() -> Result<(), cocco::Error> {
/// let model = cocco::graph::models::chain(4);
/// // Default method: the paper's genetic co-exploration.
/// let result = Cocco::new().with_budget(500).explore(&model)?;
/// assert!(result.genome.partition.validate(&model).is_ok());
///
/// // Any registered method runs through the same path.
/// let sa = Cocco::new()
///     .with_method(SearchMethod::sa())
///     .with_budget(500)
///     .explore(&model)?;
/// assert!(sa.cost.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Cocco {
    accel: AcceleratorConfig,
    space: BufferSpace,
    objective: Objective,
    options: EvalOptions,
    budget: u64,
    method: SearchMethod,
    seed: Option<u64>,
    engine: EngineConfig,
    cache_file: Option<std::path::PathBuf>,
    checkpoint_file: Option<std::path::PathBuf>,
    checkpoint_every: u64,
    telemetry: Telemetry,
    faults: FaultPlan,
}

impl Cocco {
    /// Creates a driver with the paper's defaults: the 2 TOPS SIMBA-like
    /// core, the shared-buffer space, the energy-capacity objective
    /// (α = 0.002), a 50 000-sample budget and the genetic co-exploration
    /// engine.
    pub fn new() -> Self {
        Self {
            accel: AcceleratorConfig::default(),
            space: BufferSpace::paper_shared(),
            objective: Objective::paper_energy_capacity(),
            options: EvalOptions::default(),
            budget: 50_000,
            method: SearchMethod::default(),
            seed: None,
            engine: EngineConfig::default(),
            cache_file: None,
            checkpoint_file: None,
            checkpoint_every: 16,
            telemetry: Telemetry::disabled(),
            faults: FaultPlan::disabled(),
        }
    }

    /// Sets the accelerator configuration.
    pub fn with_accelerator(mut self, accel: AcceleratorConfig) -> Self {
        self.accel = accel;
        self
    }

    /// Sets the memory design space.
    pub fn with_space(mut self, space: BufferSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets multi-core / batch evaluation options.
    pub fn with_options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the sample budget.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.budget = budget;
        self
    }

    /// Configures the evaluation engine (worker threads). Results are
    /// identical at any thread count; this is a wall-clock knob.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the search method (with its typed configuration).
    pub fn with_method(mut self, method: SearchMethod) -> Self {
        self.method = method;
        self
    }

    /// Attaches a telemetry sink: the engine, evaluator and search loop
    /// report spans, metrics and per-phase wall time through it, and the
    /// caller reads them back off its own clone of the handle after
    /// [`explore`](Cocco::explore). **Observation only** — a seeded run
    /// is bit-identical with telemetry enabled, disabled, or shared, at
    /// any thread count.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Arms a seeded fault-injection plan: batch-evaluation, checkpoint
    /// and cache-snapshot seams then draw from the plan's RNG and exercise
    /// the recovery paths ([`Error::WorkerPanic`] quarantine, bounded
    /// save retries, snapshot salvage). The default
    /// disabled plan never draws and perturbs nothing; keep a clone of
    /// the handle to read [`FaultPlan::health`] after the run — the same
    /// report lands on [`Exploration::health`].
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Persists the evaluation cache across runs: before exploring, the
    /// engine warm-starts from `path` (if it exists); afterwards the
    /// merged cache is written back — but only when the run added an
    /// entry the file lacks, or loading had to salvage a corrupt file or
    /// upgrade an old version. A run that adds nothing leaves the file
    /// untouched (same bytes, same modification time).
    ///
    /// Entries are keyed by the evaluator's `(model, accelerator config)`
    /// fingerprint, so changing the accelerator configuration — or the
    /// model — invalidates previous entries instead of reusing them;
    /// entries of *other* fingerprints in the file are preserved on save,
    /// so one file can serve a whole experiment sweep (saves are atomic:
    /// temp file + rename). Warm-starting never changes results (cached
    /// values are exact), only which evaluations are recomputed. An
    /// unusable *existing* file fails [`explore`](Cocco::explore) with
    /// [`Error::CacheFile`]; a failed *save* is reported non-fatally on
    /// [`Exploration::cache_save_error`].
    pub fn with_cache_file(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.cache_file = Some(path.into());
        self
    }

    /// Makes the exploration checkpointable/resumable: the search runs
    /// step-driven (the method's [`SearchDriver`](cocco_search::SearchDriver)),
    /// a [`SearchSnapshot`] is written to `path` every
    /// [`with_checkpoint_every`](Cocco::with_checkpoint_every) steps
    /// (atomically: temp file + rename), and an existing snapshot at
    /// `path` resumes the interrupted run — **bit-identically**: the
    /// resumed exploration's best cost, genome and trace equal the
    /// uninterrupted run's, at any thread count.
    ///
    /// A snapshot is only accepted when its method (full configuration),
    /// budget and evaluator fingerprint — the same `(model, accelerator)`
    /// identity the engine's cache keys embed — match this session;
    /// anything else fails with [`Error::Checkpoint`]. On successful
    /// completion the checkpoint file is removed (it has served its
    /// purpose; the returned [`Exploration`] carries the results).
    pub fn with_checkpoint_file(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.checkpoint_file = Some(path.into());
        self
    }

    /// Sets how many driver steps elapse between checkpoint saves
    /// (default 16; clamped to at least 1). A GA step is one generation,
    /// so the default saves every ~16 generations. The cadence depends on
    /// the step count alone, never on the clock.
    pub fn with_checkpoint_every(mut self, steps: u64) -> Self {
        self.checkpoint_every = steps.max(1);
        self
    }

    /// The currently selected method.
    pub fn method(&self) -> &SearchMethod {
        &self.method
    }

    /// Re-seeds the search RNG (a no-op for the deterministic baselines).
    ///
    /// The seed is applied when [`explore`](Cocco::explore) runs, so it
    /// survives a later [`with_method`](Cocco::with_method) /
    /// [`with_ga`](Cocco::with_ga) call and overrides any seed already in
    /// the method's configuration.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Selects the genetic engine with an explicit configuration
    /// (shorthand for `with_method(SearchMethod::Ga(ga))`).
    pub fn with_ga(mut self, ga: GaConfig) -> Self {
        self.method = SearchMethod::Ga(ga);
        self
    }

    /// Runs the co-exploration on `model`.
    ///
    /// # Errors
    ///
    /// * [`Error::IncompatibleObjective`] when the selected method cannot
    ///   run under the configured objective (two-step needs Formula 2);
    /// * [`Error::NoFeasibleSolution`] when no candidate buffer can execute
    ///   the model at all;
    /// * [`Error::SearchIncomplete`] when the method gave up before
    ///   exploring its space (e.g. enumeration over its state limits)
    ///   without finding any solution;
    /// * [`Error::Sim`] when the final evaluation of the best genome fails
    ///   (internal error — the wrapped [`SimError`](cocco_sim::SimError)
    ///   is preserved as the source).
    pub fn explore(&self, model: &Graph) -> Result<Exploration, Error> {
        let setup_phase = self.telemetry.phase(Phase::Setup);
        let method = match self.seed {
            Some(seed) => self.method.clone().with_seed(seed),
            None => self.method.clone(),
        };
        if method.requires_formula2() && self.objective.alpha.is_none() {
            return Err(Error::IncompatibleObjective {
                method: method.name(),
                requirement: "a Formula-2 objective (co-exploration with an α)",
            });
        }
        let evaluator = Evaluator::new(model, self.accel.clone()).with_telemetry(&self.telemetry);
        let ctx = SearchContext::new(model, &evaluator, self.space, self.objective, self.budget)
            .with_options(self.options)
            .with_engine_telemetry(self.engine, &self.telemetry)
            .with_faults(self.faults.clone());
        drop(setup_phase);
        // Warm-start from the cache file: restore this evaluator's entries,
        // carry everyone else's through to the save below. A file that
        // loaded as-is keeps its sorted keys, so a run that adds none
        // leaves it untouched.
        let mut foreign = CacheSnapshot::default();
        let mut file_keys: Option<Vec<EvalKey>> = None;
        if let Some(path) = &self.cache_file {
            if path.exists() {
                let _cache_phase = self.telemetry.phase(Phase::Cache);
                let timer = self
                    .telemetry
                    .counter("core.cache_load_ns")
                    .map(|ns| (ns, Stopwatch::start()));
                let (snapshot, origin) =
                    CacheSnapshot::load_with(path, &self.faults).map_err(|e| Error::CacheFile {
                        path: path.display().to_string(),
                        reason: e.to_string(),
                    })?;
                if origin == SnapshotOrigin::Current {
                    let mut keys: Vec<EvalKey> = snapshot.partition.iter().map(|e| e.0).collect();
                    keys.sort_unstable();
                    file_keys = Some(keys);
                }
                let (mine, rest) = snapshot.split_fingerprint(evaluator.fingerprint());
                ctx.engine().cache().restore(&mine);
                foreign = rest;
                if let Some((ns, sw)) = timer {
                    ns.add(sw.elapsed_nanos());
                }
            }
        }
        let mut checkpoint_save_error = None;
        let search_phase = self.telemetry.phase(Phase::Search);
        let outcome = match &self.checkpoint_file {
            Some(path) => self.run_checkpointed(
                &method,
                &ctx,
                evaluator.fingerprint(),
                path,
                &mut checkpoint_save_error,
            )?,
            None => method.run(&ctx),
        };
        drop(search_phase);
        // Publish the engine's absorbed counters/gauges into the shared
        // sink (the engine dies with this call frame, the caller's
        // telemetry handle lives on), and credit the accumulated dispatch
        // wall time to the Eval phase (a subset of Search; the difference
        // is driver time). Raising counters to the engine's absolute value
        // keeps already-registered sink counters untouched.
        if let Some(registry) = self.telemetry.registry() {
            let metrics = ctx.engine().metrics();
            for counter in &metrics.counters {
                let handle = registry.counter(&counter.name);
                let current = handle.get();
                if counter.value > current {
                    handle.add(counter.value - current);
                }
            }
            for gauge in &metrics.gauges {
                registry.gauge(&gauge.name).set(gauge.value);
            }
            self.telemetry
                .add_phase_time(Phase::Eval, metrics.gauge("engine.batch.wall_ns"));
        }
        // Publish fault/recovery accounting as `engine.faults.*` counters.
        // Raise-to-absolute, like the engine counters above, so repeated
        // explorations against one telemetry sink and one plan handle
        // never double-count.
        if let (Some(registry), true) = (self.telemetry.registry(), self.faults.is_enabled()) {
            let log = self.faults.log();
            let publish = |name: String, value: u64| {
                let handle = registry.counter(&name);
                let current = handle.get();
                if value > current {
                    handle.add(value - current);
                }
            };
            for site in FaultSite::ALL {
                publish(
                    format!("engine.faults.injected.{}", site.name()),
                    self.faults.injected(site),
                );
            }
            publish(
                "engine.faults.quarantined_batches".into(),
                log.quarantined_batches(),
            );
            publish(
                "engine.faults.refunded_samples".into(),
                log.refunded_samples(),
            );
            publish("engine.faults.save_retries".into(), log.save_retries());
            publish("engine.faults.save_failures".into(), log.save_failures());
            publish(
                "engine.faults.salvaged_entries".into(),
                log.salvaged_entries(),
            );
            publish(
                "engine.faults.dropped_entries".into(),
                log.dropped_entries(),
            );
        }
        // Persistence is an optimization: a failed save must not discard a
        // completed exploration, so it is reported on the result instead.
        let mut cache_save_error = None;
        if let Some(path) = &self.cache_file {
            let _cache_phase = self.telemetry.phase(Phase::Cache);
            let timer = self
                .telemetry
                .counter("core.cache_save_ns")
                .map(|ns| (ns, Stopwatch::start()));
            let mut snapshot = ctx.engine().cache().snapshot();
            // Cached values are exact, so a file that loaded as-is and
            // already holds every key the run has needs no rewrite: the
            // rewrite would produce the same entries.
            let adds = file_keys.as_ref().is_none_or(|keys| {
                snapshot
                    .partition
                    .iter()
                    .any(|(key, _)| keys.binary_search(key).is_err())
            });
            if adds {
                snapshot.merge(foreign);
                // Concurrent explorations can share one sweep-wide file;
                // fold in whatever landed on disk since our load so the
                // last rename doesn't drop another run's entries (best
                // effort — merging of identical keys is value-identical,
                // so order cannot corrupt). A salvage here mostly re-reads
                // the file the load above already salvaged and counted, so
                // it reports to a throwaway log.
                if let Ok((on_disk, _)) = CacheSnapshot::load_with(path, &FaultPlan::disabled()) {
                    snapshot.merge(on_disk);
                }
                if let Err(e) = snapshot.save_with(path, &self.faults) {
                    cache_save_error = Some(format!("{}: {e}", path.display()));
                }
                if let Some((ns, sw)) = timer {
                    ns.add(sw.elapsed_nanos());
                }
            }
        }
        // A worker panic quarantined a batch and latched the abort. The
        // cache file above was still saved (warm-start survives), the
        // engine/budget/trace are consistent (quarantined samples were
        // refunded), and whatever the run had already found is salvaged
        // onto the structured error.
        if let Some(message) = ctx.fault_abort() {
            let salvage = outcome.best.map(|genome| {
                Box::new(SalvagedBest {
                    genome,
                    cost: outcome.best_cost,
                    samples: outcome.samples,
                })
            });
            return Err(Error::WorkerPanic { message, salvage });
        }
        let genome = outcome.best.ok_or(if outcome.completed {
            Error::NoFeasibleSolution
        } else {
            // The paper's "cannot complete within a reasonable time":
            // distinguish giving up from proving infeasibility.
            Error::SearchIncomplete {
                method: method.name(),
            }
        })?;
        let report = evaluator.eval_partition(
            &genome.partition.subgraphs(),
            &genome.buffer,
            self.options,
        )?;
        Ok(Exploration {
            genome,
            report,
            cost: outcome.best_cost,
            samples: outcome.samples,
            completed: outcome.completed,
            infeasible_errors: ctx.trace().infeasible_errors(),
            stats: ctx.engine().stats(),
            trace: ctx.trace().clone(),
            cache_save_error,
            checkpoint_save_error,
            health: self.faults.health(),
        })
    }

    /// The step-driven, checkpointed search loop: resume from an existing
    /// snapshot (after verifying its coordinates), then step the driver,
    /// saving a snapshot every `checkpoint_every` steps. Save failures are
    /// non-fatal (reported via `save_error`); the checkpoint is removed on
    /// successful completion.
    fn run_checkpointed(
        &self,
        method: &SearchMethod,
        ctx: &SearchContext<'_>,
        fingerprint: u64,
        path: &std::path::Path,
        save_error: &mut Option<String>,
    ) -> Result<SearchOutcome, Error> {
        let checkpoint_error = |reason: String| Error::Checkpoint {
            path: path.display().to_string(),
            reason,
        };
        let mut driver = if path.exists() {
            let text =
                std::fs::read_to_string(path).map_err(|e| checkpoint_error(e.to_string()))?;
            let snapshot: SearchSnapshot =
                serde_json::from_str(&text).map_err(|e| checkpoint_error(e.to_string()))?;
            if snapshot.version != CHECKPOINT_VERSION {
                return Err(checkpoint_error(format!(
                    "snapshot version {} (this build reads {})",
                    snapshot.version, CHECKPOINT_VERSION
                )));
            }
            if snapshot.fingerprint != fingerprint {
                return Err(checkpoint_error(
                    "evaluator fingerprint mismatch (the model or accelerator configuration \
                     changed since the checkpoint was written)"
                        .to_string(),
                ));
            }
            if snapshot.method != *method {
                return Err(checkpoint_error(
                    "method/configuration mismatch (the checkpoint was written by a different \
                     search setup)"
                        .to_string(),
                ));
            }
            if snapshot.budget_limit != self.budget {
                return Err(checkpoint_error(format!(
                    "budget mismatch (checkpoint ran under {} samples, this session under {})",
                    snapshot.budget_limit, self.budget
                )));
            }
            snapshot
                .driver
                .check(ctx.graph())
                .map_err(|reason| checkpoint_error(format!("driver state unusable: {reason}")))?;
            snapshot.replay_into(ctx);
            method
                .driver_from_state(&snapshot.driver)
                .ok_or_else(|| checkpoint_error("driver state does not match the method".into()))?
        } else {
            method.driver()
        };
        let mut steps = 0u64;
        while drive_step(&mut *driver, ctx) {
            steps += 1;
            if steps.is_multiple_of(self.checkpoint_every) {
                let serialize_phase = self.telemetry.phase(Phase::Serialize);
                let snapshot = SearchSnapshot::capture(method, &*driver, ctx);
                if let Err(e) = save_checkpoint(&snapshot, path, &self.faults) {
                    *save_error = Some(format!("{}: {e}", path.display()));
                }
                drop(serialize_phase);
            }
        }
        if ctx.fault_abort().is_some() {
            // A worker panic stopped the run mid-step. The last periodic
            // snapshot — captured between steps, the only place a
            // snapshot is valid — stays on disk so the interrupted
            // search can resume; the caller gets the structured
            // `Error::WorkerPanic` from `explore`.
            return Ok(driver.outcome());
        }
        // Completed: the checkpoint has served its purpose.
        // cocco-audit: allow(R2) checkpoint cleanup is best-effort; a leftover file only re-resumes an already-finished run
        std::fs::remove_file(path).ok();
        Ok(driver.outcome())
    }
}

/// Writes a checkpoint atomically with bounded retry (unique temp file +
/// rename via [`cocco_faults::atomic_save`]), so an interrupted save
/// never leaves a torn snapshot — or a stale temp file — behind.
fn save_checkpoint(
    snapshot: &SearchSnapshot,
    path: &std::path::Path,
    faults: &FaultPlan,
) -> std::io::Result<()> {
    let text = serde_json::to_string(snapshot)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    cocco_faults::atomic_save(path, &text, faults)
}

impl Default for Cocco {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CoccoError;
    use cocco_sim::BufferConfig;

    #[test]
    fn explore_produces_consistent_result() {
        let model = cocco_graph::models::diamond();
        let result = Cocco::new()
            .with_budget(800)
            .with_seed(3)
            .explore(&model)
            .unwrap();
        assert!(result.cost.is_finite());
        assert!(result.report.fits);
        assert!(result.samples <= 800);
        assert!(result.genome.partition.validate(&model).is_ok());
        assert_eq!(result.trace.len() as u64, result.samples);
    }

    #[test]
    fn infeasible_space_is_an_error() {
        let model = cocco_graph::models::chain(3);
        let err = Cocco::new()
            .with_space(BufferSpace::fixed(BufferConfig::shared(8)))
            .with_budget(50)
            .explore(&model)
            .unwrap_err();
        assert_eq!(err, CoccoError::NoFeasibleSolution);
    }

    #[test]
    fn deterministic_under_seed() {
        let model = cocco_graph::models::diamond();
        let a = Cocco::new()
            .with_budget(300)
            .with_seed(9)
            .explore(&model)
            .unwrap();
        let b = Cocco::new()
            .with_budget(300)
            .with_seed(9)
            .explore(&model)
            .unwrap();
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.genome.buffer, b.genome.buffer);
        assert_eq!(a.trace, b.trace);
    }

    #[test]
    fn seed_survives_later_method_selection() {
        let model = cocco_graph::models::diamond();
        let seed_first = Cocco::new()
            .with_seed(42)
            .with_method(SearchMethod::sa())
            .with_budget(200)
            .explore(&model)
            .unwrap();
        let seed_last = Cocco::new()
            .with_method(SearchMethod::sa())
            .with_seed(42)
            .with_budget(200)
            .explore(&model)
            .unwrap();
        assert_eq!(seed_first.cost, seed_last.cost);
        assert_eq!(seed_first.genome, seed_last.genome);
        // And the explicit seed differs from the default-seed run.
        let default_seed = Cocco::new()
            .with_method(SearchMethod::sa())
            .with_budget(200)
            .explore(&model)
            .unwrap();
        assert_ne!(seed_first.trace, default_seed.trace);
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        let model = cocco_graph::models::googlenet();
        let run = |threads: u32| {
            Cocco::new()
                .with_budget(600)
                .with_seed(13)
                .with_engine(EngineConfig::with_threads(threads))
                .explore(&model)
                .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.cost, parallel.cost);
        assert_eq!(serial.genome, parallel.genome);
        assert_eq!(serial.trace, parallel.trace);
        assert_eq!(serial.stats.evals, parallel.stats.evals);
        assert_eq!(parallel.stats.threads, 4);
    }

    #[test]
    fn standard_ga_run_reports_engine_stats() {
        let model = cocco_graph::models::diamond();
        let result = Cocco::new()
            .with_budget(800)
            .with_seed(3)
            .explore(&model)
            .unwrap();
        assert!(
            result.stats.cache_hits > 0,
            "a GA population re-proposes genomes; some evaluations must hit the cache"
        );
        assert!(result.stats.evals >= result.samples);
        assert_eq!(
            result.infeasible_errors, 0,
            "a well-formed run must not hide evaluator errors"
        );
    }

    #[test]
    fn cache_file_warm_starts_and_is_invalidated_by_config_change() {
        let dir = std::env::temp_dir().join(format!("cocco-facade-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("explore-cache.json");
        let model = cocco_graph::models::googlenet();
        let session = || {
            Cocco::new()
                .with_budget(300)
                .with_seed(5)
                .with_cache_file(&path)
        };
        let cold = session().explore(&model).unwrap();
        assert!(path.exists(), "explore must write the cache file");
        let warm = session().explore(&model).unwrap();
        // Warm-starting changes hit counts, never results.
        assert_eq!(cold.cost, warm.cost);
        assert_eq!(cold.genome, warm.genome);
        assert_eq!(cold.trace, warm.trace);
        assert!(
            warm.stats.hit_rate() > cold.stats.hit_rate(),
            "second run must answer more requests from the persisted cache \
             (cold {:.3} vs warm {:.3})",
            cold.stats.hit_rate(),
            warm.stats.hit_rate()
        );
        assert_eq!(
            warm.stats.subgraph_scorings, 0,
            "a fully warm-started run must not re-score any subgraph"
        );

        // A different accelerator config has a different fingerprint: no
        // entry of the warm file may be reused (hits can only come from the
        // run's own evaluations), and both fingerprints' entries coexist in
        // the file afterwards.
        let mut accel = AcceleratorConfig::default();
        accel.mac_cols *= 2;
        let other = session().with_accelerator(accel).explore(&model).unwrap();
        assert!(
            other.stats.subgraph_scorings > 0,
            "a different accelerator fingerprint must force fresh scorings \
             instead of reusing the stale file"
        );
        let snapshot = cocco_engine::CacheSnapshot::load(&path).unwrap();
        let fingerprints: std::collections::HashSet<u64> = snapshot
            .partition
            .iter()
            .map(|(k, _)| k.fingerprint)
            .collect();
        assert_eq!(fingerprints.len(), 2, "both configs' entries persist");

        // A corrupt cache file is a reported error, not silent garbage.
        std::fs::write(&path, "{broken").unwrap();
        let err = session().explore(&model).unwrap_err();
        assert!(matches!(err, Error::CacheFile { .. }));

        // An unwritable save path does not discard a completed run: the
        // exploration succeeds and the failure is reported on the result.
        let unwritable = dir.join("no-such-dir").join("cache.json");
        let result = Cocco::new()
            .with_budget(200)
            .with_seed(5)
            .with_cache_file(&unwritable)
            .explore(&model)
            .unwrap();
        assert!(
            result.cache_save_error.is_some(),
            "a failed save must be reported"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("cocco-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt.json");
        let model = cocco_graph::models::googlenet();
        let plain = Cocco::new()
            .with_budget(400)
            .with_seed(5)
            .explore(&model)
            .unwrap();
        let checkpointed = Cocco::new()
            .with_budget(400)
            .with_seed(5)
            .with_checkpoint_file(&path)
            .with_checkpoint_every(1)
            .explore(&model)
            .unwrap();
        assert_eq!(plain.cost, checkpointed.cost);
        assert_eq!(plain.genome, checkpointed.genome);
        assert_eq!(plain.trace, checkpointed.trace);
        assert_eq!(plain.samples, checkpointed.samples);
        assert!(!path.exists(), "a completed run must remove its checkpoint");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_from_interrupted_checkpoint_is_bit_identical() {
        use cocco_search::{SearchSnapshot, Step};
        let dir = std::env::temp_dir().join(format!("cocco-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("interrupted.ckpt.json");
        let model = cocco_graph::models::googlenet();
        let method = SearchMethod::ga().with_seed(9);
        let budget = 500;

        // Simulate an interruption: drive the same search the facade
        // would run for a few steps, then snapshot and abandon it.
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            budget,
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
        std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
        drop(driver);

        // The facade resumes the interrupted run; the result must equal
        // the uninterrupted exploration bit for bit.
        let session = || Cocco::new().with_budget(budget).with_seed(9);
        let resumed = session()
            .with_checkpoint_file(&path)
            .explore(&model)
            .unwrap();
        let uninterrupted = session().explore(&model).unwrap();
        assert_eq!(resumed.cost, uninterrupted.cost);
        assert_eq!(resumed.genome, uninterrupted.genome);
        assert_eq!(resumed.trace, uninterrupted.trace);
        assert_eq!(resumed.samples, uninterrupted.samples);

        // Mismatched coordinates are rejected, not silently restarted.
        std::fs::write(&path, serde_json::to_string(&snapshot).unwrap()).unwrap();
        let err = session()
            .with_method(SearchMethod::sa())
            .with_checkpoint_file(&path)
            .explore(&model)
            .unwrap_err();
        assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
        let err = session()
            .with_budget(budget + 1)
            .with_checkpoint_file(&path)
            .explore(&model)
            .unwrap_err();
        assert!(matches!(err, Error::Checkpoint { .. }), "{err}");
        let err = session()
            .with_accelerator({
                let mut accel = AcceleratorConfig::default();
                accel.mac_cols *= 2;
                accel
            })
            .with_checkpoint_file(&path)
            .explore(&model)
            .unwrap_err();
        assert!(
            matches!(err, Error::Checkpoint { .. }),
            "fingerprint mismatch must be rejected: {err}"
        );
        // A corrupt checkpoint is a reported error.
        std::fs::write(&path, "{torn").unwrap();
        let err = session()
            .with_checkpoint_file(&path)
            .explore(&model)
            .unwrap_err();
        assert!(matches!(err, Error::Checkpoint { .. }));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_enabled_run_is_bit_identical_and_profiled() {
        let model = cocco_graph::models::googlenet();
        let telemetry = Telemetry::enabled();
        let session = || Cocco::new().with_budget(400).with_seed(11);
        let observed = session()
            .with_telemetry(telemetry.clone())
            .explore(&model)
            .unwrap();
        let plain = session().explore(&model).unwrap();
        assert_eq!(observed.cost, plain.cost);
        assert_eq!(observed.genome, plain.genome);
        assert_eq!(observed.trace, plain.trace);

        // The phase profile covers the lifecycle, with Eval ⊆ Search.
        let phases = telemetry.phases();
        assert!(phases.search_ms > 0.0);
        assert!(phases.eval_ms > 0.0);
        assert!(phases.eval_ms <= phases.search_ms);

        // Engine counters, step spans and improvement events all landed
        // in the one shared sink.
        let snap = telemetry.snapshot();
        assert!(snap.counter("engine.evals") > 0);
        assert!(snap.histogram("search.step_ns").unwrap().count > 0);
        assert!(snap.histogram("engine.batch.latency_ns").unwrap().count > 0);
        assert!(telemetry
            .events()
            .iter()
            .any(|e| e.name == "search.improvement"));
    }

    #[test]
    fn two_step_without_alpha_is_rejected() {
        let model = cocco_graph::models::diamond();
        let err = Cocco::new()
            .with_method(SearchMethod::two_step())
            .with_objective(Objective::partition_only(cocco_sim::CostMetric::Ema))
            .with_budget(50)
            .explore(&model)
            .unwrap_err();
        assert!(matches!(err, Error::IncompatibleObjective { .. }));
    }

    #[test]
    fn every_method_explores_through_the_facade() {
        let model = cocco_graph::models::diamond();
        for method in SearchMethod::all() {
            let name = method.name();
            let result = Cocco::new()
                .with_method(method)
                .with_seed(5)
                .with_budget(400)
                .explore(&model)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                result.genome.partition.validate(&model).is_ok(),
                "{name} produced an invalid partition"
            );
            assert!(result.cost.is_finite(), "{name} found nothing finite");
        }
    }
}
