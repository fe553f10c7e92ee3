//! The shared search context: engine access, budget accounting, repair
//! and trace recording.

use crate::driver::EvalBatch;
use crate::genome::Genome;
use crate::objective::{BufferSpace, Objective};
use cocco_engine::{
    Engine, EngineConfig, EvalMemo, SampleBudget, SampleReservation, ScoredEval, Trace, TracePoint,
};
use cocco_faults::{FaultPlan, FaultSite};
use cocco_graph::{Graph, NodeId, NodeSetFp};
use cocco_partition::{ParentSeed, Partition, PartitionDelta, RepairScratch};
use cocco_sim::{BufferConfig, EvalOptions, Evaluator, SimError, SubgraphStats};
use cocco_telemetry::{Stopwatch, Telemetry};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a mutation operator knows about the genome it produced: the
/// coordinates its parent was scored under ([`EvalMemo`]) plus the
/// [`PartitionDelta`] naming which nodes the operator moved. Hints seed
/// repair only; scoring reads the layout and fingerprints of the repaired
/// partition.
///
/// The delta **must** satisfy the member-set invariant documented on
/// [`PartitionDelta`] relative to the parent's partition: repair takes
/// every clean subgraph for one of the parent's (connected, and fitting
/// when the parent was scored under this evaluator and these options and
/// the buffer did not shrink; see `ParentSeed`). Operators of unknown
/// extent derive an honest delta with [`PartitionDelta::between`] instead
/// of guessing.
///
/// A **clean** delta means more: the genome's partition is the parent's,
/// label for label, as evaluation returned it. A fitting candidate with a
/// clean delta skips repair and keeps its partition as it is. Operators
/// that leave the partition alone satisfy this by construction; one that
/// rebuilds an assignment whose member sets all equal the parent's (a
/// crossover can) hands over the parent's partition instead.
#[derive(Debug)]
pub struct EvalHint {
    /// The coordinates the parent genome was scored under.
    pub memo: Arc<EvalMemo>,
    /// Nodes whose subgraph membership the mutation changed.
    pub delta: PartitionDelta,
}

/// One genome queued for batch evaluation.
///
/// Inputs: the genome and an optional [`EvalHint`]. Outputs, filled in by
/// [`SearchContext::evaluate_chunks`]: the repaired genome, its
/// objective `cost` (`None` iff the budget ran out first) and the `memo`
/// to hand to this genome's own offspring (`None` when the evaluator
/// errored).
#[derive(Debug)]
pub struct EvalCandidate {
    /// The genome; repaired in place by evaluation.
    pub genome: Genome,
    /// Repair-seeding hint, consumed by evaluation.
    pub hint: Option<EvalHint>,
    /// The coordinates the genome was scored under (output).
    pub memo: Option<Arc<EvalMemo>>,
    /// The objective cost (output).
    pub cost: Option<f64>,
}

impl EvalCandidate {
    /// A candidate with no hint (repaired unseeded).
    pub fn new(genome: Genome) -> Self {
        Self {
            genome,
            hint: None,
            memo: None,
            cost: None,
        }
    }

    /// A candidate carrying its parent's memo and the mutation's delta.
    pub fn with_hint(genome: Genome, hint: Option<EvalHint>) -> Self {
        Self {
            genome,
            hint,
            memo: None,
            cost: None,
        }
    }
}

/// Where a chunk's funding comes from (see `evaluate_chunks`).
enum Funding<'f> {
    /// The context's own budget.
    Context,
    /// An explicit budget (a sub-search's slice).
    Budget(&'f SampleBudget),
    /// Funding drawn ahead of dispatch.
    Reservation(&'f mut SampleReservation),
}

/// One contiguous group of candidates sharing an objective and a funding
/// source inside a single engine dispatch.
struct EvalGroup<'g> {
    candidates: &'g mut [EvalCandidate],
    objective: Objective,
    funding: Funding<'g>,
}

/// Everything a [`SearchDriver`](crate::SearchDriver) needs: the graph, the
/// shared evaluator, the buffer space, the objective, evaluation options, a
/// sample budget, a trace and the evaluation [`Engine`].
///
/// Evaluations ([`evaluate_chunks`](SearchContext::evaluate_chunks), which
/// every driver step runs through) consume budget and are traced; the
/// analytic helpers used inside deterministic baselines
/// ([`subgraph_cost`](SearchContext::subgraph_cost),
/// [`fits`](SearchContext::fits)) do not consume budget but still share the
/// engine's memoization cache.
///
/// # Parallelism and determinism
///
/// [`evaluate_chunks`](SearchContext::evaluate_chunks) hands every funded
/// genome to the engine's worker pool as one job: repair, cache probe and
/// scoring. Budget samples are drawn and trace points recorded in **input
/// order** before/after the parallel section, each genome's repair +
/// scoring is a pure function of the genome, and the cache entries a batch
/// computes are published in that same order once it finishes — so a
/// seeded search produces bit-identical results at any thread count.
#[derive(Debug)]
pub struct SearchContext<'a> {
    graph: &'a Graph,
    evaluator: &'a Evaluator<'a>,
    /// The buffer design space.
    pub space: BufferSpace,
    /// The objective (Formula 1 or 2).
    pub objective: Objective,
    /// Core/batch options applied to every evaluation.
    pub options: EvalOptions,
    budget: Arc<SampleBudget>,
    trace: Arc<Trace>,
    engine: Arc<Engine>,
    /// Best cost any evaluation of this context family has produced, as
    /// `f64` bits — telemetry only (`search.improvement` events), never
    /// consulted by a search decision. Shared by
    /// [`derive_with_budget`](Self::derive_with_budget)d contexts so an
    /// improvement is "new best of the whole run".
    best_seen: Arc<AtomicU64>,
    /// Seeded fault-injection plan (disabled by default). Draws happen in
    /// the serial funding-order sections only, so an enabled plan is
    /// bit-identical at any thread count.
    faults: FaultPlan,
    /// Set when a worker panic quarantined a batch: the panic message.
    /// Shared by derived contexts so one abort stops the whole step
    /// family; the driver loop checks it via
    /// [`fault_abort`](Self::fault_abort) and unwinds with best-so-far.
    abort: Arc<Mutex<Option<String>>>,
}

impl<'a> SearchContext<'a> {
    /// Creates a context with a fresh budget of `budget_limit` samples and
    /// a default ([`EngineConfig::auto`]) evaluation engine.
    pub fn new(
        graph: &'a Graph,
        evaluator: &'a Evaluator<'a>,
        space: BufferSpace,
        objective: Objective,
        budget_limit: u64,
    ) -> Self {
        Self {
            graph,
            evaluator,
            space,
            objective,
            options: EvalOptions::default(),
            budget: Arc::new(SampleBudget::new(budget_limit)),
            trace: Arc::new(Trace::new()),
            engine: Arc::new(Engine::new(EngineConfig::default())),
            best_seen: Arc::new(AtomicU64::new(f64::INFINITY.to_bits())),
            faults: FaultPlan::disabled(),
            abort: Arc::new(Mutex::new(None)),
        }
    }

    /// Sets multi-core / batch evaluation options.
    pub fn with_options(mut self, options: EvalOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a fault-injection plan. Evaluation then draws from the
    /// plan's seeded RNG at the instrumented seams (evaluator errors,
    /// worker panics, budget revocation); a [`FaultPlan::disabled`] plan —
    /// the default — never draws and perturbs nothing.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// The fault-injection plan this context draws from.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The panic message of a quarantined batch, if a worker panic aborted
    /// this context family. Once set, further evaluation requests return
    /// without funding, so the caller can unwind with budget accounting
    /// and trace still consistent.
    pub fn fault_abort(&self) -> Option<String> {
        self.abort
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Replaces the evaluation engine (thread policy; results are
    /// unaffected, only wall-clock). The replacement starts with an empty
    /// cache, so call this before searching.
    pub fn with_engine(mut self, config: EngineConfig) -> Self {
        self.engine = Arc::new(Engine::new(config));
        self
    }

    /// [`with_engine`](Self::with_engine) with a telemetry sink attached
    /// to the replacement engine — the context's own instrumentation
    /// (step spans, improvement events, budget gauge) reports through the
    /// engine's handle, so this is how a harness turns search telemetry
    /// on. Observation only: results are bit-identical with telemetry
    /// enabled, disabled, or shared with other components.
    pub fn with_engine_telemetry(mut self, config: EngineConfig, telemetry: &Telemetry) -> Self {
        self.engine = Arc::new(Engine::with_telemetry(config, telemetry.clone()));
        self
    }

    /// The telemetry handle this context reports through (the engine's;
    /// disabled unless [`with_engine_telemetry`](Self::with_engine_telemetry)
    /// attached a sink).
    pub fn telemetry(&self) -> &Telemetry {
        self.engine.telemetry()
    }

    /// Derives a context with a different space, objective and budget
    /// handle that shares this context's trace, options, evaluator and
    /// engine — how a stepped sub-search (a two-step inner GA) keeps
    /// drawing from **its own persistent slice** across driver steps
    /// while sharing the common memoization cache.
    pub fn derive_with_budget(
        &self,
        space: BufferSpace,
        objective: Objective,
        budget: Arc<SampleBudget>,
    ) -> SearchContext<'a> {
        SearchContext {
            graph: self.graph,
            evaluator: self.evaluator,
            space,
            objective,
            options: self.options,
            budget,
            trace: Arc::clone(&self.trace),
            engine: Arc::clone(&self.engine),
            best_seen: Arc::clone(&self.best_seen),
            faults: self.faults.clone(),
            abort: Arc::clone(&self.abort),
        }
    }

    /// The shared budget as a cloneable handle (for slicing by stepped
    /// sub-searches).
    pub fn budget_handle(&self) -> Arc<SampleBudget> {
        Arc::clone(&self.budget)
    }

    /// The searched graph.
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// The shared evaluator.
    pub fn evaluator(&self) -> &'a Evaluator<'a> {
        self.evaluator
    }

    /// The shared sample budget.
    pub fn budget(&self) -> &SampleBudget {
        &self.budget
    }

    /// The evaluation trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The shared evaluation engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Whether subgraph `members` fits `buffer` under the context's options
    /// (activation footprint, per-core weight shard, region count).
    ///
    /// Evaluator errors count as "does not fit" **and** increment the
    /// trace's `infeasible_errors` counter, so configuration bugs stay
    /// visible in the outcome.
    pub fn fits(&self, members: &[NodeId], buffer: &BufferConfig) -> bool {
        match self.evaluator.subgraph_stats(members) {
            Ok(stats) => self.stats_fit(&stats, buffer),
            Err(_) => {
                self.trace.record_infeasible_error();
                false
            }
        }
    }

    /// The fit test of [`fits`](Self::fits) on statistics already in hand.
    fn stats_fit(&self, stats: &SubgraphStats, buffer: &BufferConfig) -> bool {
        let wgt = stats
            .wgt_resident_bytes
            .div_ceil(u64::from(self.options.cores()));
        buffer.fits(stats.act_footprint_bytes, wgt)
            && stats.regions <= self.evaluator.config().max_regions
    }

    /// Evaluates a driver's [`EvalBatch`] — every chunk of every candidate
    /// — as **one** engine dispatch, honoring each chunk's objective and
    /// funding overrides.
    ///
    /// A candidate carrying an [`EvalHint`] is repaired seeded from its
    /// parent (see `ParentSeed`); every candidate is then scored the same
    /// way. Each candidate's `memo` output is its own, ready to seed its
    /// offspring's hints. Results are bit-identical with and without hints
    /// (a seed only skips `fits` calls whose answer is known).
    ///
    /// Funding is drawn in chunk order, candidate order (a chunk whose
    /// budget runs dry leaves its remaining candidates unfunded and moves
    /// on to the next chunk, whose own budget may still have capacity).
    /// Trace points follow that same funding order, so chunks of
    /// different funding sources sharing one dispatch stay bit-identical
    /// at any thread count.
    pub fn evaluate_chunks(&self, batch: &mut EvalBatch) {
        // A quarantined batch aborts the step family: once a worker panic
        // was caught, refuse further funding so the caller unwinds with
        // budget accounting and trace still consistent.
        if self.fault_abort().is_some() {
            return;
        }
        let mut groups: Vec<EvalGroup<'_>> = batch
            .chunks
            .iter_mut()
            .map(|chunk| {
                let crate::driver::EvalChunk {
                    candidates,
                    objective,
                    budget,
                    reservation,
                } = chunk;
                EvalGroup {
                    candidates,
                    objective: objective.unwrap_or(self.objective),
                    funding: match (reservation, budget) {
                        (Some(reservation), _) => Funding::Reservation(reservation),
                        (None, Some(budget)) => Funding::Budget(budget),
                        (None, None) => Funding::Context,
                    },
                }
            })
            .collect();
        // Pin sample indices to input order before any worker runs.
        let mut funded_per_group = Vec::with_capacity(groups.len());
        let mut samples = Vec::new();
        for group in groups.iter_mut() {
            let mut funded = 0usize;
            for _ in 0..group.candidates.len() {
                let sample = match &mut group.funding {
                    Funding::Context => self.budget.try_consume(),
                    Funding::Budget(budget) => budget.try_consume(),
                    Funding::Reservation(reservation) => reservation.take(),
                };
                match sample {
                    Some(sample) => {
                        samples.push(sample);
                        funded += 1;
                    }
                    None => break,
                }
            }
            funded_per_group.push(funded);
        }
        if samples.is_empty() {
            return;
        }
        // Budget consumption gauge: the root pool's position after this
        // batch's funding (slices/reservations all draw from it).
        if let Some(gauge) = self.engine.telemetry().gauge("search.budget.used") {
            gauge.set(self.budget.used());
        }
        let mut jobs: Vec<(Mutex<&mut EvalCandidate>, Objective, u64)> =
            Vec::with_capacity(samples.len());
        {
            let mut sample_iter = samples.iter();
            for (group, &funded) in groups.iter_mut().zip(&funded_per_group) {
                let objective = group.objective;
                for candidate in group.candidates.iter_mut().take(funded) {
                    jobs.push((
                        Mutex::new(candidate),
                        objective,
                        // cocco-audit: allow(R1) samples holds exactly sum(funded_per_group) entries by construction above
                        *sample_iter.next().unwrap(),
                    ));
                }
            }
        }
        // Per-job panic draws happen here, in the serial funding-order
        // section, so injection points are a pure function of the plan's
        // seed and the funding sequence — bit-identical at any thread
        // count. The disabled-plan hot path allocates nothing.
        let panics: Vec<bool> = if self.faults.is_enabled() {
            (0..jobs.len())
                .map(|_| self.faults.should_inject(FaultSite::WorkerPanic))
                .collect()
        } else {
            Vec::new()
        };
        let results: Vec<Mutex<Option<TracePoint>>> =
            (0..jobs.len()).map(|_| Mutex::new(None)).collect();
        // `search.repair_ns` and `sim.fits_calls`: with telemetry on, each
        // job records its repair's time and `fits` calls into its slot and
        // the batch publishes the sums once; with it off there are no
        // slots and no clock reads.
        let telemetry = self.engine.telemetry();
        let counters = telemetry
            .counter("search.repair_ns")
            .zip(telemetry.counter("sim.fits_calls"));
        let tallies: Vec<[AtomicU64; 2]> = match counters {
            Some(_) => (0..jobs.len()).map(|_| Default::default()).collect(),
            None => Vec::new(),
        };
        // One pool job per funded candidate, in one engine scratch slot:
        // repair, probe and score on a miss, all reading the layout and
        // fingerprints repair left in the slot, then record. Fault
        // injection wraps this same job: a drawn worker panic fires before
        // the body runs.
        let dispatched = self.engine.try_dispatch(jobs.len(), |i| {
            if panics.get(i).copied().unwrap_or_default() {
                panic!("cocco-faults: injected worker panic");
            }
            let (slot, objective, sample) = &jobs[i];
            let candidate: &mut EvalCandidate = &mut slot.lock().unwrap();
            let buffer = candidate.genome.buffer;
            self.engine.with_slot(|arena| {
                let timer = tallies.get(i).map(|slot| (slot, Stopwatch::start()));
                let fits_calls = self.take_hint_and_repair(arena.repair_scratch(), candidate);
                if let Some(([ns, calls], sw)) = timer {
                    ns.store(sw.elapsed_nanos(), Ordering::Relaxed);
                    calls.store(fits_calls, Ordering::Relaxed);
                }
                let (scored, memo) =
                    self.engine
                        .score_slot(arena, i as u64, self.evaluator, &buffer, self.options);
                self.finish_scored(&results, i, *objective, *sample, candidate, scored, memo);
            });
        });
        if let Some((repair_ns, fits_calls)) = counters {
            let sum = |k: usize| tallies.iter().map(|t| t[k].load(Ordering::Relaxed)).sum();
            repair_ns.add(sum(0));
            fits_calls.add(sum(1));
        }
        if let Err(panic) = dispatched {
            // Discard every funded candidate uniformly (some may have
            // finished scoring, but keeping them would make results
            // depend on worker scheduling). Consuming `jobs` here also
            // releases its borrows so the refund pass can walk `groups`.
            for (slot, _, _) in jobs {
                let candidate = slot
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                candidate.cost = None;
                candidate.memo = None;
                candidate.hint = None;
            }
            self.quarantine_batch(panic.message, &mut groups, &funded_per_group);
            return;
        }
        // Record trace points in funding (= sample) order.
        for slot in &results {
            // cocco-audit: allow(R1) the engine ran one job per slot; an empty slot means the dispatch itself is broken
            let point = slot.lock().unwrap().take().expect("every funded job ran");
            self.record_traced(point);
        }
    }

    /// The per-candidate evaluation prologue: consume the hint and repair
    /// the genome in place, in the job slot's `scratch`, seeded with what
    /// the parent proved. Pure per candidate, so it runs inside the
    /// candidate's pool job. Returns how many `fits` calls the repair
    /// made.
    fn take_hint_and_repair(
        &self,
        scratch: &mut RepairScratch,
        candidate: &mut EvalCandidate,
    ) -> u64 {
        let buffer = candidate.genome.buffer;
        let (parent_memo, mut delta) = match candidate.hint.take() {
            Some(hint) => (Some(hint.memo), hint.delta),
            None => (None, PartitionDelta::all(self.graph.len())),
        };
        let seed = self.parent_seed(parent_memo.as_deref(), &buffer);
        let calls = Cell::new(0);
        let fits = |members: &[NodeId]| {
            calls.set(calls.get() + 1);
            self.fits(members, &buffer)
        };
        let partition =
            std::mem::replace(&mut candidate.genome.partition, Partition::singletons(0));
        candidate.genome.partition = scratch.repair(self.graph, partition, &fits, &mut delta, seed);
        calls.get()
    }

    /// What a hinted candidate's repair may take from the parent behind
    /// `memo` (`None` without a hint). The hint's delta marks every
    /// subgraph that is not one of the parent's, and the parent was
    /// repaired, so its clean subgraphs are connected. [`fits`](Self::fits)
    /// depends only on the evaluator, the options and the buffer, and is
    /// monotone in each buffer capacity. So when the parent was scored
    /// under this evaluator and these options and no buffer component
    /// shrank, its multi-node subgraphs fit this buffer as well.
    fn parent_seed(&self, memo: Option<&EvalMemo>, buffer: &BufferConfig) -> Option<ParentSeed> {
        let (fingerprint, parent, options) = memo?.coordinates();
        let no_smaller = match (parent, *buffer) {
            (BufferConfig::Shared { total: was }, BufferConfig::Shared { total }) => total >= was,
            (BufferConfig::Separate { glb: g, wgt: w }, BufferConfig::Separate { glb, wgt }) => {
                glb >= g && wgt >= w
            }
            _ => false,
        };
        let fitted =
            no_smaller && fingerprint == self.evaluator.fingerprint() && options == self.options;
        Some(if fitted {
            ParentSeed::Fitted
        } else {
            ParentSeed::Connected
        })
    }

    /// The per-candidate evaluation epilogue: store the memo and cost on
    /// the candidate and park its trace point in `results[i]` (recorded
    /// in funding order after the batch completes).
    #[allow(clippy::too_many_arguments)]
    fn finish_scored(
        &self,
        results: &[Mutex<Option<TracePoint>>],
        i: usize,
        objective: Objective,
        sample: u64,
        candidate: &mut EvalCandidate,
        scored: ScoredEval,
        memo: Option<Arc<EvalMemo>>,
    ) {
        candidate.memo = memo;
        if scored.error {
            self.trace.record_infeasible_error();
        }
        let cost = scored.cost(objective.metric, objective.alpha);
        candidate.cost = Some(cost);
        *results[i].lock().unwrap() = Some(TracePoint {
            sample,
            cost,
            buffer_bytes: candidate.genome.buffer.total_bytes(),
            metric_value: scored.metric(objective.metric),
        });
    }

    /// Recovery path for a worker panic caught mid-dispatch (candidates
    /// already uniformly discarded by the caller): refund every funded
    /// sample to its funding source so no budget is stranded, record no
    /// trace points, and latch the abort so the driver loop unwinds with
    /// best-so-far. Runs serially after the pool delivered the panic, so
    /// the recovery itself is deterministic.
    fn quarantine_batch(
        &self,
        message: String,
        groups: &mut [EvalGroup<'_>],
        funded_per_group: &[usize],
    ) {
        let mut refunded = 0u64;
        for (group, &funded) in groups.iter_mut().zip(funded_per_group) {
            let n = funded as u64;
            if n == 0 {
                continue;
            }
            match &mut group.funding {
                Funding::Context => self.budget.refund(n),
                Funding::Budget(budget) => budget.refund(n),
                Funding::Reservation(reservation) => reservation.refund(n),
            }
            refunded += n;
        }
        let log = self.faults.log();
        log.note_quarantined_batch();
        log.note_refunded_samples(refunded);
        self.engine.telemetry().emit("recovery", || {
            vec![
                ("kind", "quarantined_batch".into()),
                ("refunded_samples", refunded.into()),
            ]
        });
        *self
            .abort
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()) = Some(message);
    }

    /// Records a trace point, emitting a `search.improvement` event when
    /// its cost beats the best this context family has seen. Runs in the
    /// serial funding-order sections only, so the event order is
    /// deterministic; with telemetry disabled it is exactly
    /// `trace.record`.
    fn record_traced(&self, point: TracePoint) {
        let telemetry = self.engine.telemetry();
        if telemetry.is_enabled()
            && point.cost < f64::from_bits(self.best_seen.load(Ordering::Relaxed))
        {
            self.best_seen
                .store(point.cost.to_bits(), Ordering::Relaxed);
            telemetry.emit("search.improvement", || {
                vec![
                    ("sample", point.sample.into()),
                    ("cost", point.cost.into()),
                    ("buffer_bytes", point.buffer_bytes.into()),
                ]
            });
        }
        self.trace.record(point);
    }

    /// The additive Formula-1 term of a single subgraph under `buffer`
    /// (`None` when it does not fit). Used by the greedy, DP and
    /// enumeration baselines; does not consume budget, but shares the
    /// evaluator's statistics cache. Evaluator errors count as "does not
    /// fit" and increment the trace's `infeasible_errors` counter, as in
    /// [`fits`](Self::fits).
    pub fn subgraph_cost(&self, members: &[NodeId], buffer: &BufferConfig) -> Option<f64> {
        self.stats_cost(self.evaluator.subgraph_stats(members), buffer)
    }

    /// [`subgraph_cost`](Self::subgraph_cost) of statistics already in
    /// hand (a grown subgraph's), recording an evaluator error the same
    /// way.
    pub(crate) fn stats_cost(
        &self,
        stats: Result<SubgraphStats, SimError>,
        buffer: &BufferConfig,
    ) -> Option<f64> {
        match stats {
            Ok(stats) => self.stats_term(&stats, buffer),
            Err(_) => {
                self.trace.record_infeasible_error();
                None
            }
        }
    }

    /// [`subgraph_cost`](Self::subgraph_cost) without recording an
    /// evaluator error, for callers that memoize the outcome and record
    /// it on every lookup themselves. `fp` is the member set's
    /// fingerprint, kept by the caller. Members should ascend (what the
    /// statistics derivation expects, so no sorted copy is made).
    pub(crate) fn subgraph_term(
        &self,
        fp: NodeSetFp,
        members: &[NodeId],
        buffer: &BufferConfig,
    ) -> Result<Option<f64>, SimError> {
        Ok(self.stats_term(&self.evaluator.subgraph_stats_keyed(fp, members)?, buffer))
    }

    /// The term of one subgraph's statistics: one fit check, then the
    /// engine's single-subgraph scoring.
    fn stats_term(&self, stats: &SubgraphStats, buffer: &BufferConfig) -> Option<f64> {
        if !self.stats_fit(stats, buffer) {
            return None;
        }
        let scored = self
            .engine
            .score_single(self.evaluator, stats, buffer, self.options);
        Some(scored.metric(self.objective.metric))
    }

    /// The full objective cost of a valid partition under `buffer`, without
    /// consuming budget (used to score deterministic baseline outputs).
    pub fn partition_cost(&self, partition: &Partition, buffer: &BufferConfig) -> f64 {
        let (scored, _) =
            self.engine
                .score_partition(self.evaluator, partition, buffer, self.options);
        if scored.error {
            self.trace.record_infeasible_error();
        }
        scored.cost(self.objective.metric, self.objective.alpha)
    }
}

// Batch evaluation shares the context across the engine's workers.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<SearchContext<'static>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_engine::EngineStats;
    use cocco_sim::{AcceleratorConfig, CostMetric};

    fn context<'a>(
        graph: &'a Graph,
        evaluator: &'a Evaluator<'a>,
        budget: u64,
    ) -> SearchContext<'a> {
        SearchContext::new(
            graph,
            evaluator,
            BufferSpace::fixed(BufferConfig::shared(1 << 20)),
            Objective::partition_only(CostMetric::Ema),
            budget,
        )
    }

    /// Evaluates `genomes` as one plain chunk, writes the repaired genomes
    /// back and returns their costs in input order.
    fn evaluate_plain(ctx: &SearchContext<'_>, genomes: &mut [Genome]) -> Vec<Option<f64>> {
        let candidates = genomes.iter().cloned().map(EvalCandidate::new).collect();
        let mut batch = EvalBatch::single(candidates);
        ctx.evaluate_chunks(&mut batch);
        let evaluated = batch.chunks.remove(0).candidates;
        genomes
            .iter_mut()
            .zip(evaluated)
            .map(|(genome, candidate)| {
                *genome = candidate.genome;
                candidate.cost
            })
            .collect()
    }

    #[test]
    fn evaluate_consumes_budget_and_traces() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 2);
        let mut genome = [Genome::new(
            Partition::singletons(g.len()),
            BufferConfig::shared(1 << 20),
        )];
        assert!(evaluate_plain(&ctx, &mut genome)[0].is_some());
        assert!(evaluate_plain(&ctx, &mut genome)[0].is_some());
        assert!(evaluate_plain(&ctx, &mut genome)[0].is_none());
        assert_eq!(ctx.trace().len(), 2);
        assert_eq!(ctx.budget().used(), 2);
        // The repeated evaluation hit the engine cache.
        assert!(ctx.engine().stats().cache_hits >= 1);
    }

    #[test]
    fn evaluate_repairs_invalid_genomes() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        // Cyclic quotient assignment.
        let mut genome = [Genome::new(
            Partition::from_assignment(vec![0, 0, 0, 1, 0]),
            BufferConfig::shared(1 << 20),
        )];
        let cost = evaluate_plain(&ctx, &mut genome)[0].unwrap();
        assert!(cost.is_finite());
        assert!(genome[0].partition.validate(&g).is_ok());
    }

    #[test]
    fn batch_preserves_order_and_funds_prefix() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 3);
        let mut genomes: Vec<Genome> = (0..5)
            .map(|_| {
                Genome::new(
                    Partition::singletons(g.len()),
                    BufferConfig::shared(1 << 20),
                )
            })
            .collect();
        let costs = evaluate_plain(&ctx, &mut genomes);
        assert_eq!(costs.len(), 5);
        assert!(costs[..3].iter().all(Option::is_some));
        assert!(costs[3..].iter().all(Option::is_none));
        assert_eq!(ctx.budget().used(), 3);
        assert_eq!(ctx.trace().len(), 3);
        // Trace points carry consecutive input-order samples.
        let samples: Vec<u64> = ctx.trace().points().iter().map(|p| p.sample).collect();
        assert_eq!(samples, vec![0, 1, 2]);
    }

    #[test]
    fn batch_matches_serial_at_any_thread_count() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |threads: u32| {
            let ctx = context(&g, &eval, 64).with_engine(EngineConfig::with_threads(threads));
            let mut genomes: Vec<Genome> = (0..64)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 7),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate_plain(&ctx, &mut genomes);
            (costs, genomes, ctx.trace().points())
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(serial.0, parallel.0, "costs differ at {threads} threads");
            assert_eq!(serial.1, parallel.1, "genomes differ at {threads} threads");
            assert_eq!(serial.2, parallel.2, "traces differ at {threads} threads");
        }
    }

    #[test]
    fn telemetry_observes_searches_without_perturbing_them() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |telemetry: Option<&Telemetry>| {
            let ctx = context(&g, &eval, 32);
            let ctx = match telemetry {
                Some(t) => ctx.with_engine_telemetry(EngineConfig::with_threads(2), t),
                None => ctx.with_engine(EngineConfig::with_threads(2)),
            };
            let mut genomes: Vec<Genome> = (0..32)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 5),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate_plain(&ctx, &mut genomes);
            (costs, ctx.trace().points())
        };
        let telemetry = cocco_telemetry::Telemetry::enabled();
        let observed = run(Some(&telemetry));
        let plain = run(None);
        assert_eq!(observed, plain, "telemetry must not change results");

        // Improvement events carry strictly decreasing costs.
        let improvements: Vec<f64> = telemetry
            .events()
            .iter()
            .filter(|e| e.name == "search.improvement")
            .map(|e| match &e.fields[1].1 {
                cocco_telemetry::EventValue::F64(c) => *c,
                other => panic!("cost field holds {other:?}"),
            })
            .collect();
        assert!(!improvements.is_empty());
        assert!(improvements.windows(2).all(|w| w[1] < w[0]));

        // Budget gauge tracked the pool; dispatch fed the batch histogram.
        let snap = telemetry.snapshot();
        assert_eq!(snap.gauge("search.budget.used"), 32);
        let batches = snap.histogram("engine.batch.latency_ns").unwrap();
        assert!(batches.count >= 1);
        // Every job timed its repair and counted its fits calls; the
        // batches published the sums.
        assert!(snap.counter("search.repair_ns") > 0);
        assert!(snap.counter("sim.fits_calls") > 0);
    }

    #[test]
    fn parent_seed_trusts_fits_only_under_the_same_coordinates_and_no_smaller_buffer() {
        use ParentSeed::{Connected, Fitted};
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        let p = cocco_partition::repair(&g, Partition::connected_groups(&g, 3), &|members| {
            ctx.fits(members, &BufferConfig::shared(1 << 20))
        });
        let memo_for = |ctx: &SearchContext<'_>, buffer: BufferConfig| {
            ctx.engine()
                .score_partition(ctx.evaluator(), &p, &buffer, ctx.options)
                .1
                .expect("a fresh score records a memo")
        };
        let (shared, separate) = (
            BufferConfig::shared(1 << 20),
            BufferConfig::separate(1 << 19, 1 << 19),
        );
        let seed = |memo: &EvalMemo, buffer: BufferConfig| ctx.parent_seed(Some(memo), &buffer);
        // One shared buffer: larger or equal seeds, smaller does not.
        let parent = memo_for(&ctx, shared);
        assert_eq!(seed(&parent, shared), Some(Fitted));
        assert_eq!(seed(&parent, BufferConfig::shared(2 << 20)), Some(Fitted));
        assert_eq!(
            seed(&parent, BufferConfig::shared(1 << 19)),
            Some(Connected)
        );
        // Separate buffers: either component smaller does not seed.
        let parent_separate = memo_for(&ctx, separate);
        assert_eq!(seed(&parent_separate, separate), Some(Fitted));
        let bigger = BufferConfig::separate(1 << 20, 1 << 20);
        assert_eq!(seed(&parent_separate, bigger), Some(Fitted));
        for smaller in [
            BufferConfig::separate(1 << 18, 1 << 20),
            BufferConfig::separate(1 << 20, 1 << 18),
        ] {
            assert_eq!(seed(&parent_separate, smaller), Some(Connected));
        }
        // Shared against separate, either way round, does not seed.
        assert_eq!(seed(&parent, bigger), Some(Connected));
        assert_eq!(
            seed(&parent_separate, BufferConfig::shared(4 << 20)),
            Some(Connected)
        );
        // Other options (cores) or another evaluator do not seed.
        let multicore = context(&g, &eval, 10).with_options(EvalOptions::with_cores(2));
        assert_eq!(seed(&memo_for(&multicore, shared), shared), Some(Connected));
        let config = AcceleratorConfig {
            max_regions: AcceleratorConfig::default().max_regions + 1,
            ..AcceleratorConfig::default()
        };
        let other_eval = Evaluator::new(&g, config);
        assert_ne!(other_eval.fingerprint(), eval.fingerprint());
        let other = context(&g, &other_eval, 10);
        assert_eq!(seed(&memo_for(&other, shared), shared), Some(Connected));
        // No hint, no seed.
        assert_eq!(ctx.parent_seed(None, &shared), None);
    }

    #[test]
    fn subgraph_cost_matches_metric() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        let members: Vec<NodeId> = g.node_ids().collect();
        let cost = ctx
            .subgraph_cost(&members, &BufferConfig::shared(1 << 20))
            .unwrap();
        let stats = eval.subgraph_stats(&members).unwrap();
        assert_eq!(cost, stats.ema_bytes() as f64);
        assert_eq!(ctx.budget().used(), 0, "analytic helper must be free");
    }

    #[test]
    fn enabled_fault_plans_dispatch_like_production() {
        // The fault seam wraps the production job: an armed plan that
        // never fires hands the pool exactly the jobs the fault-free run
        // does and leaves the same engine counters, including on a warm
        // second batch.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let dispatched = |faults: FaultPlan| {
            let ctx = context(&g, &eval, 48)
                .with_engine(EngineConfig::with_threads(2))
                .with_faults(faults);
            for _ in 0..2 {
                let mut genomes: Vec<Genome> = (0..24)
                    .map(|i| {
                        Genome::new(
                            Partition::connected_groups(&g, 2 + i % 5),
                            BufferConfig::shared(1 << 20),
                        )
                    })
                    .collect();
                evaluate_plain(&ctx, &mut genomes);
            }
            let stats = ctx.engine().stats();
            (
                ctx.engine().metrics().counter("engine.pool.dispatched"),
                EngineStats {
                    wall_ms: 0.0,
                    ..stats
                },
                ctx.trace().points(),
            )
        };
        let rates = cocco_faults::FaultRates::none().with(FaultSite::WorkerPanic, 0.0);
        let armed = FaultPlan::seeded(7, rates);
        assert!(armed.is_enabled());
        let plain = dispatched(FaultPlan::disabled());
        assert!(plain.0 > 0 && plain.1.cache_hits > 0, "{plain:?}");
        assert_eq!(plain, dispatched(armed));
    }

    #[test]
    fn worker_panic_quarantines_batch_and_refunds_budget() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        for threads in [1, 2] {
            let rates = cocco_faults::FaultRates::none().with(FaultSite::WorkerPanic, 1.0);
            let ctx = context(&g, &eval, 16)
                .with_engine(EngineConfig::with_threads(threads))
                .with_faults(FaultPlan::seeded(3, rates));
            let mut genomes: Vec<Genome> = (0..4)
                .map(|_| {
                    Genome::new(
                        Partition::singletons(g.len()),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect();
            let costs = evaluate_plain(&ctx, &mut genomes);
            assert!(
                costs.iter().all(Option::is_none),
                "quarantine discards uniformly"
            );
            // Every funded sample was refunded — nothing stranded, and the
            // trace-length invariant holds.
            assert_eq!(ctx.budget().used(), 0);
            assert_eq!(ctx.trace().len(), 0);
            let log = ctx.faults().log();
            assert_eq!(log.quarantined_batches(), 1);
            assert_eq!(log.refunded_samples(), 4);
            let message = ctx.fault_abort().expect("abort latched");
            assert!(message.contains("injected worker panic"), "{message}");
            // Aborted contexts refuse further funding instead of running.
            let mut more = genomes.clone();
            assert!(evaluate_plain(&ctx, &mut more).iter().all(Option::is_none));
            assert_eq!(ctx.budget().used(), 0);
        }
    }

    #[test]
    fn worker_panic_refunds_sliced_and_reserved_funding_to_the_root_pool() {
        // A chunk draws its funding from a budget slice (the two-step's
        // inner GA) or from a reservation on one, drawn ahead of dispatch
        // (a hand-built chunk). A panic after some progress must return
        // every funded sample of the quarantined batch through the slice
        // to the root pool, so the pool's count matches the trace.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let faulty = |rate| {
            let rates = cocco_faults::FaultRates::none().with(FaultSite::WorkerPanic, rate);
            SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::co_exploration(CostMetric::Energy, 0.002),
                400,
            )
            .with_faults(FaultPlan::seeded(0, rates))
        };
        let assert_refunded = |ctx: &SearchContext<'_>, leg: &str| {
            assert!(ctx.fault_abort().is_some(), "{leg}: no panic fired");
            let log = ctx.faults().log();
            assert_eq!(log.quarantined_batches(), 1, "{leg}");
            assert!(log.refunded_samples() > 0, "{leg}");
            assert!(!ctx.trace().is_empty(), "{leg}: panic before any progress");
            assert_eq!(ctx.budget().used(), ctx.trace().len() as u64, "{leg}");
        };

        let mut two_step = crate::TwoStep::random().with_per_candidate(100);
        two_step.ga.population = 20;
        let sliced = faulty(0.002);
        crate::SearchMethod::TwoStep(two_step).run(&sliced);
        assert_refunded(&sliced, "sliced");

        let reserved = faulty(0.02);
        let slice = Arc::new(SampleBudget::slice(reserved.budget_handle(), 200));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        while reserved.fault_abort().is_none() && !slice.is_exhausted() {
            let candidates = (0..20)
                .map(|_| EvalCandidate::new(Genome::random(&g, &reserved.space, &mut rng)))
                .collect();
            let mut chunk = crate::EvalChunk::new(candidates);
            chunk.reservation = Some(slice.reserve(20));
            reserved.evaluate_chunks(&mut EvalBatch {
                chunks: vec![chunk],
            });
        }
        assert_refunded(&reserved, "reserved");
    }

    #[test]
    fn subgraph_cost_rejects_oversized() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 10);
        let members: Vec<NodeId> = g.node_ids().collect();
        assert!(ctx
            .subgraph_cost(&members, &BufferConfig::shared(64))
            .is_none());
    }
}
