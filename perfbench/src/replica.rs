//! The traced replica: a serial re-implementation of `Cocco::explore`
//! built only from the layers' public functions, with every layer call
//! timed by a `Stopwatch`. It must reproduce the facade's best cost,
//! genome and trace bit for bit; otherwise its layer numbers describe a
//! different program.
//!
//! The replica follows the facade's default path: the engine's serial
//! hit prefilter (repair, key and probe per candidate in funding order),
//! then one `Engine::dispatch` of the misses through `score_prepared`, so
//! staged cache entries publish at the batch end exactly as in production.

use crate::workload::{signature, Case, Signature};
use cocco::engine::{
    CacheSnapshot, EngineStats, EvalMemo, PartitionProbe, PreparedEval, ScoredEval, TracePoint,
};
use cocco::graph::{models, NodeId};
use cocco::partition::{repair_with_delta, Partition, PartitionDelta};
use cocco::search::{BufferSpace, EvalBatch, EvalCandidate, Objective, SearchContext, Step};
use cocco::sim::{AcceleratorConfig, BufferConfig, EvalOptions, Evaluator};
use cocco::telemetry::Stopwatch;
use std::cell::Cell;
use std::sync::{Arc, Mutex, PoisonError};

/// Layer self times and counts of one traced exploration, or a sum of
/// several.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layers {
    /// Traced wall time of the whole exploration, graph build included.
    pub wall_ns: u64,
    pub graph_build_ns: u64,
    pub evaluator_new_ns: u64,
    /// `SearchContext` construction plus `SearchMethod::driver`.
    pub search_setup_ns: u64,
    pub next_batch_ns: u64,
    pub absorb_ns: u64,
    /// `repair_with_delta` self time, excluding its `fits` calls.
    pub repair_ns: u64,
    pub repair_calls: u64,
    /// Repairs that changed some subgraph's member set.
    pub repair_changed: u64,
    /// `SearchContext::fits` calls made by repair.
    pub fits_ns: u64,
    pub fits_calls: u64,
    pub fits_rejects: u64,
    pub stats_hits: u64,
    pub stats_misses: u64,
    /// `Engine::prepare_partition`: key building and cache probing.
    pub probe_ns: u64,
    /// `Engine::dispatch` of the misses through `score_prepared`.
    pub score_ns: u64,
    pub engine_evals: u64,
    pub engine_hits: u64,
    pub subgraph_scorings: u64,
    pub subgraph_requests: u64,
    pub subgraph_avoided: u64,
    pub dispatched_jobs: u64,
    /// `CacheSnapshot::load` + split + `EvalCache::restore`.
    pub cache_load_ns: u64,
    /// `EvalCache::snapshot` + merges (re-reading the file) + save.
    pub cache_save_ns: u64,
    pub snapshot_bytes: u64,
    /// `Evaluator::eval_partition` of the returned design.
    pub final_eval_ns: u64,
}

impl Layers {
    /// The timed layer rows as `(name, self ns)`, in report order.
    pub fn rows(&self) -> [(&'static str, u64); 13] {
        [
            ("graph.build_ns", self.graph_build_ns),
            ("sim.evaluator_new_ns", self.evaluator_new_ns),
            ("search.setup_ns", self.search_setup_ns),
            ("core.cache_load_ns", self.cache_load_ns),
            ("search.next_batch_ns", self.next_batch_ns),
            ("partition.repair_ns", self.repair_ns),
            ("sim.fits_ns", self.fits_ns),
            ("engine.probe_ns", self.probe_ns),
            ("engine.score_ns", self.score_ns),
            ("search.absorb_ns", self.absorb_ns),
            ("core.cache_save_ns", self.cache_save_ns),
            ("sim.final_eval_ns", self.final_eval_ns),
            ("unattributed_ns", self.unattributed_ns()),
        ]
    }

    /// Traced wall time no layer row accounts for.
    pub fn unattributed_ns(&self) -> u64 {
        let attributed = self.graph_build_ns
            + self.evaluator_new_ns
            + self.search_setup_ns
            + self.cache_load_ns
            + self.next_batch_ns
            + self.repair_ns
            + self.fits_ns
            + self.probe_ns
            + self.score_ns
            + self.absorb_ns
            + self.cache_save_ns
            + self.final_eval_ns;
        self.wall_ns.saturating_sub(attributed)
    }

    /// Adds every field of `other` into `self`.
    pub fn add(&mut self, other: &Layers) {
        let Layers {
            wall_ns,
            graph_build_ns,
            evaluator_new_ns,
            search_setup_ns,
            next_batch_ns,
            absorb_ns,
            repair_ns,
            repair_calls,
            repair_changed,
            fits_ns,
            fits_calls,
            fits_rejects,
            stats_hits,
            stats_misses,
            probe_ns,
            score_ns,
            engine_evals,
            engine_hits,
            subgraph_scorings,
            subgraph_requests,
            subgraph_avoided,
            dispatched_jobs,
            cache_load_ns,
            cache_save_ns,
            snapshot_bytes,
            final_eval_ns,
        } = *other;
        self.wall_ns += wall_ns;
        self.graph_build_ns += graph_build_ns;
        self.evaluator_new_ns += evaluator_new_ns;
        self.search_setup_ns += search_setup_ns;
        self.next_batch_ns += next_batch_ns;
        self.absorb_ns += absorb_ns;
        self.repair_ns += repair_ns;
        self.repair_calls += repair_calls;
        self.repair_changed += repair_changed;
        self.fits_ns += fits_ns;
        self.fits_calls += fits_calls;
        self.fits_rejects += fits_rejects;
        self.stats_hits += stats_hits;
        self.stats_misses += stats_misses;
        self.probe_ns += probe_ns;
        self.score_ns += score_ns;
        self.engine_evals += engine_evals;
        self.engine_hits += engine_hits;
        self.subgraph_scorings += subgraph_scorings;
        self.subgraph_requests += subgraph_requests;
        self.subgraph_avoided += subgraph_avoided;
        self.dispatched_jobs += dispatched_jobs;
        self.cache_load_ns += cache_load_ns;
        self.cache_save_ns += cache_save_ns;
        self.snapshot_bytes += snapshot_bytes;
        self.final_eval_ns += final_eval_ns;
    }
}

/// Runs `case` through the traced replica and returns the output
/// signature with the layer accounting.
pub fn traced_explore(case: &Case) -> Result<(Signature, Layers), String> {
    let wall = Stopwatch::start();
    let mut layers = Layers::default();

    let sw = Stopwatch::start();
    let graph = models::by_name(case.model).ok_or("unknown model")?;
    layers.graph_build_ns = sw.elapsed_nanos();

    let sw = Stopwatch::start();
    let evaluator = Evaluator::new(&graph, AcceleratorConfig::default());
    layers.evaluator_new_ns = sw.elapsed_nanos();

    let sw = Stopwatch::start();
    let objective = Objective::paper_energy_capacity();
    let ctx = SearchContext::new(
        &graph,
        &evaluator,
        BufferSpace::paper_shared(),
        objective,
        case.budget,
    )
    .with_options(EvalOptions::default())
    .with_engine(case.engine_config());
    let mut driver = case.method.driver();
    layers.search_setup_ns = sw.elapsed_nanos();

    let mut foreign = CacheSnapshot::default();
    if let Some(path) = case.cache_file.as_deref().filter(|p| p.exists()) {
        let sw = Stopwatch::start();
        let snapshot =
            CacheSnapshot::load(path).map_err(|e| format!("cache file unusable: {e}"))?;
        let (mine, rest) = snapshot.split_fingerprint(evaluator.fingerprint());
        ctx.engine().cache().restore(&mine);
        foreign = rest;
        layers.cache_load_ns = sw.elapsed_nanos();
    }

    loop {
        let sw = Stopwatch::start();
        let step = driver.next_batch(&ctx);
        layers.next_batch_ns += sw.elapsed_nanos();
        match step {
            Step::Evaluate(mut batch) => {
                evaluate(&ctx, &mut batch, &mut layers)?;
                let sw = Stopwatch::start();
                driver.absorb(&ctx, batch);
                layers.absorb_ns += sw.elapsed_nanos();
            }
            Step::Continue => {}
            Step::Done => break,
        }
    }
    let outcome = driver.outcome();

    let metrics = ctx.engine().metrics();
    let stats = EngineStats::from_metrics(&metrics);
    layers.engine_evals = stats.evals;
    layers.engine_hits = stats.cache_hits;
    layers.subgraph_scorings = stats.subgraph_scorings;
    layers.subgraph_requests = stats.subgraph_requests();
    layers.subgraph_avoided = stats.subgraph_hits + stats.subgraph_reused;
    layers.dispatched_jobs = metrics.counter("engine.pool.dispatched");
    layers.stats_hits = evaluator.stats_cache_hits();
    layers.stats_misses = evaluator.stats_cache_misses();

    if let Some(path) = case.cache_file.as_deref() {
        let sw = Stopwatch::start();
        let mut snapshot = ctx.engine().cache().snapshot();
        snapshot.merge(foreign);
        if let Ok(on_disk) = CacheSnapshot::load(path) {
            snapshot.merge(on_disk);
        }
        snapshot
            .save(path)
            .map_err(|e| format!("saving the cache file: {e}"))?;
        layers.cache_save_ns = sw.elapsed_nanos();
        layers.snapshot_bytes = std::fs::metadata(path)
            .map_err(|e| format!("reading the cache file size: {e}"))?
            .len();
    }

    let genome = outcome.best.ok_or("the replica found no design")?;
    let sw = Stopwatch::start();
    let report = evaluator
        .eval_partition(
            &genome.partition.subgraphs(),
            &genome.buffer,
            EvalOptions::default(),
        )
        .map_err(|e| format!("final evaluation failed: {e}"))?;
    layers.final_eval_ns = sw.elapsed_nanos();
    let alpha = objective
        .alpha
        .ok_or("the default objective lost its alpha")?;
    if report.cost_formula2(objective.metric, alpha).to_bits() != outcome.best_cost.to_bits() {
        return Err("the replica's final report disagrees with its best cost".into());
    }
    let sig = signature(outcome.best_cost, &genome, &ctx.trace().points());
    // Dropping the session joins the engine's workers, as the facade's
    // return does.
    drop(driver);
    drop(ctx);
    layers.wall_ns = wall.elapsed_nanos();
    Ok((sig, layers))
}

/// Times the `fits` calls repair makes through its closure.
#[derive(Default)]
struct FitsProbe {
    ns: Cell<u64>,
    calls: Cell<u64>,
    rejects: Cell<u64>,
}

impl FitsProbe {
    fn fits(&self, ctx: &SearchContext<'_>, members: &[NodeId], buffer: &BufferConfig) -> bool {
        let sw = Stopwatch::start();
        let fits = ctx.fits(members, buffer);
        self.ns.set(self.ns.get() + sw.elapsed_nanos());
        self.calls.set(self.calls.get() + 1);
        if !fits {
            self.rejects.set(self.rejects.get() + 1);
        }
        fits
    }
}

/// A miss parked for the pool: its prepared key material and parent memo.
type Pending = Mutex<Option<(PreparedEval, Option<Arc<EvalMemo>>)>>;

/// A miss's score and memo, filled in by its pool job.
type Scored = Mutex<Option<(ScoredEval, Option<Arc<EvalMemo>>)>>;

/// `SearchContext::evaluate_chunks` on the default engine path: fund in
/// chunk and candidate order, repair and probe serially, score the misses
/// in one dispatch, record trace points in funding order.
fn evaluate(
    ctx: &SearchContext<'_>,
    batch: &mut EvalBatch,
    layers: &mut Layers,
) -> Result<(), String> {
    let graph = ctx.graph();
    let mut jobs: Vec<(&mut EvalCandidate, Objective, u64)> = Vec::new();
    for chunk in &mut batch.chunks {
        if chunk.budget.is_some() || chunk.reservation.is_some() {
            return Err("the replica funds chunks from the context budget only".into());
        }
        let objective = chunk.objective.unwrap_or(ctx.objective);
        for candidate in &mut chunk.candidates {
            match ctx.budget().try_consume() {
                Some(sample) => jobs.push((candidate, objective, sample)),
                None => break,
            }
        }
    }

    let fits = FitsProbe::default();
    let mut points: Vec<Option<TracePoint>> = vec![None; jobs.len()];
    let mut misses: Vec<(usize, Pending)> = Vec::new();
    for (i, (candidate, objective, sample)) in jobs.iter_mut().enumerate() {
        let buffer = candidate.genome.buffer;
        let (memo, mut delta) = match candidate.hint.take() {
            Some(hint) => (Some(hint.memo), hint.delta),
            None => (None, PartitionDelta::all(graph.len())),
        };
        // Repair records into a clean delta so a changed member set is
        // visible; repair only ever marks nodes, so folding it into the
        // hint's delta afterwards equals repairing into that delta.
        let mut repaired = PartitionDelta::clean(graph.len());
        let partition =
            std::mem::replace(&mut candidate.genome.partition, Partition::singletons(0));
        let fits_before = fits.ns.get();
        let sw = Stopwatch::start();
        candidate.genome.partition = repair_with_delta(
            graph,
            partition,
            &|members| fits.fits(ctx, members, &buffer),
            &mut repaired,
        );
        let repair_ns = sw.elapsed_nanos();
        layers.repair_ns += repair_ns.saturating_sub(fits.ns.get() - fits_before);
        layers.repair_calls += 1;
        if !repaired.is_clean() {
            layers.repair_changed += 1;
        }
        delta.union(&repaired);

        let sw = Stopwatch::start();
        let probe = ctx.engine().prepare_partition(
            ctx.evaluator(),
            &candidate.genome.partition,
            &buffer,
            ctx.options,
            memo.as_deref().map(|memo| (memo, &delta)),
        );
        layers.probe_ns += sw.elapsed_nanos();
        match probe {
            PartitionProbe::Hit(scored, memo_out) => {
                points[i] = Some(finish(
                    ctx, candidate, *objective, *sample, scored, memo_out,
                ));
            }
            PartitionProbe::Miss(prepared) => {
                misses.push((i, Mutex::new(Some((prepared, memo)))));
            }
        }
    }
    layers.fits_ns += fits.ns.get();
    layers.fits_calls += fits.calls.get();
    layers.fits_rejects += fits.rejects.get();

    if !misses.is_empty() {
        let scored: Vec<Scored> = misses.iter().map(|_| Mutex::new(None)).collect();
        let shared = &jobs;
        let sw = Stopwatch::start();
        ctx.engine().dispatch(misses.len(), |j| {
            let (idx, pending) = &misses[j];
            let Some((prepared, memo)) = pending
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .take()
            else {
                return;
            };
            let candidate = &shared[*idx].0;
            let out = ctx.engine().score_prepared(
                *idx as u64,
                ctx.evaluator(),
                &candidate.genome.partition,
                &candidate.genome.buffer,
                ctx.options,
                memo.as_deref(),
                prepared,
            );
            *scored[j].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        });
        layers.score_ns += sw.elapsed_nanos();
        for ((idx, _), slot) in misses.iter().zip(scored) {
            let (result, memo) = slot
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .ok_or("a dispatched miss was never scored")?;
            let (candidate, objective, sample) = &mut jobs[*idx];
            points[*idx] = Some(finish(ctx, candidate, *objective, *sample, result, memo));
        }
    }

    for point in points {
        ctx.trace()
            .record(point.ok_or("a funded candidate produced no trace point")?);
    }
    Ok(())
}

/// Stores a scored candidate's memo and cost and returns its trace point.
fn finish(
    ctx: &SearchContext<'_>,
    candidate: &mut EvalCandidate,
    objective: Objective,
    sample: u64,
    scored: ScoredEval,
    memo: Option<Arc<EvalMemo>>,
) -> TracePoint {
    candidate.memo = memo;
    if scored.error {
        ctx.trace().record_infeasible_error();
    }
    let cost = scored.cost(objective.metric, objective.alpha);
    candidate.cost = Some(cost);
    TracePoint {
        sample,
        cost,
        buffer_bytes: candidate.genome.buffer.total_bytes(),
        metric_value: scored.metric(objective.metric),
    }
}
