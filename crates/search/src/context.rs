//! The shared search context: engine access, budget accounting, repair
//! and trace recording.

use crate::driver::EvalBatch;
use crate::genome::Genome;
use crate::objective::{BufferSpace, Objective};
use cocco_engine::{
    Engine, EngineConfig, EvalMemo, PartitionProbe, SampleBudget, SampleReservation, ScoredEval,
    Trace, TracePoint,
};
use cocco_faults::{FaultPlan, FaultSite};
use cocco_graph::{Graph, NodeId};
use cocco_partition::{
    repair, repair_seeded, repair_with_delta, ParentSeed, Partition, PartitionDelta,
};
use cocco_sim::{BufferConfig, EvalOptions, Evaluator};
use cocco_telemetry::{Stopwatch, Telemetry};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// What a mutation operator knows about the genome it produced: the
/// coordinates its parent was scored under ([`EvalMemo`]) plus the
/// [`PartitionDelta`] naming which nodes the operator moved. Hints seed
/// repair only; scoring derives every key from scratch.
///
/// The delta **must** satisfy the member-set invariant documented on
/// [`PartitionDelta`] relative to the parent's partition: repair takes
/// every clean subgraph for one of the parent's (connected, and fitting
/// when the parent was scored under this evaluator and these options and
/// the buffer did not shrink; see `ParentSeed`). Operators of unknown
/// extent derive an honest delta with [`PartitionDelta::between`] instead
/// of guessing.
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
/// [`SearchContext::evaluate_candidates`]: the repaired genome, its
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

/// Where a group's funding comes from (see `evaluate_groups`).
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

/// Everything a [`Searcher`](crate::Searcher) needs: the graph, the shared
/// evaluator, the buffer space, the objective, evaluation options, a sample
/// budget, a trace and the evaluation [`Engine`].
///
/// Evaluations ([`evaluate_chunks`](SearchContext::evaluate_chunks), which
/// every driver step runs through, and its genome-level wrappers) consume
/// budget and are traced; the analytic helpers used inside deterministic baselines
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
    /// consulted by a search decision. Shared by [`derive`](Self::derive)d
    /// contexts so an improvement is "new best of the whole run".
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

    /// Derives a context with a different space/objective that shares this
    /// context's budget, trace, options, evaluator and engine — used by the
    /// two-step scheme to run partition-only inner searches against the
    /// common sample pool (and the common memoization cache).
    pub fn derive(&self, space: BufferSpace, objective: Objective) -> SearchContext<'a> {
        SearchContext {
            graph: self.graph,
            evaluator: self.evaluator,
            space,
            objective,
            options: self.options,
            budget: Arc::clone(&self.budget),
            trace: Arc::clone(&self.trace),
            engine: Arc::clone(&self.engine),
            best_seen: Arc::clone(&self.best_seen),
            faults: self.faults.clone(),
            abort: Arc::clone(&self.abort),
        }
    }

    /// Derives a context whose budget is capped at `cap` additional samples
    /// while still drawing from (and counting against) this context's pool.
    pub fn slice_budget(&self, cap: u64) -> SearchContext<'a> {
        self.derive_with_budget(
            self.space,
            self.objective,
            Arc::new(SampleBudget::slice(Arc::clone(&self.budget), cap)),
        )
    }

    /// [`derive`](Self::derive) with an explicit budget handle — how a
    /// stepped sub-search (a two-step inner GA, a portfolio member) keeps
    /// drawing from **its own persistent slice** across driver steps while
    /// sharing this context's trace, engine and evaluator.
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
            Ok(stats) => {
                let wgt = stats
                    .wgt_resident_bytes
                    .div_ceil(u64::from(self.options.cores()));
                buffer.fits(stats.act_footprint_bytes, wgt)
                    && stats.regions <= self.evaluator.config().max_regions
            }
            Err(_) => {
                self.trace.record_infeasible_error();
                false
            }
        }
    }

    /// Runs the full repair pipeline on `partition` for `buffer`
    /// (connectivity, acyclicity, in-situ capacity splits).
    pub fn repair(&self, partition: Partition, buffer: &BufferConfig) -> Partition {
        repair(self.graph, partition, &|members| self.fits(members, buffer))
    }

    /// [`repair`](Self::repair), recording every membership change the
    /// pipeline makes into `delta` (on top of whatever the caller already
    /// marked).
    pub fn repair_with_delta(
        &self,
        partition: Partition,
        buffer: &BufferConfig,
        delta: &mut PartitionDelta,
    ) -> Partition {
        repair_with_delta(
            self.graph,
            partition,
            &|members| self.fits(members, buffer),
            delta,
        )
    }

    /// Repairs and evaluates `genome` in place, consuming one budget
    /// sample. Returns the objective cost, or `None` when the budget is
    /// exhausted (the genome is then left unmodified).
    pub fn evaluate(&self, genome: &mut Genome) -> Option<f64> {
        self.evaluate_batch(std::slice::from_mut(genome))
            .pop()
            .flatten()
    }

    /// Repairs and evaluates a batch of genomes in place on the engine's
    /// worker pool, consuming one budget sample per evaluated genome.
    ///
    /// The result vector preserves input order; entry `i` is `None` iff the
    /// budget ran out before genome `i` (un-funded genomes are left
    /// unmodified). Sample indices and trace points follow input order
    /// regardless of the thread count, so seeded searches are bit-identical
    /// serial and parallel.
    pub fn evaluate_batch(&self, genomes: &mut [Genome]) -> Vec<Option<f64>> {
        let mut candidates: Vec<EvalCandidate> = genomes
            .iter_mut()
            .map(|g| {
                let buffer = g.buffer;
                EvalCandidate::new(std::mem::replace(
                    g,
                    Genome::new(Partition::singletons(0), buffer),
                ))
            })
            .collect();
        let costs = self.evaluate_candidates(&mut candidates);
        for (g, candidate) in genomes.iter_mut().zip(candidates) {
            *g = candidate.genome;
        }
        costs
    }

    /// Repairs and evaluates a batch of [`EvalCandidate`]s in place on the
    /// engine's worker pool: a one-chunk
    /// [`evaluate_chunks`](Self::evaluate_chunks), which drivers call directly.
    ///
    /// A candidate carrying an [`EvalHint`] is repaired seeded from its
    /// parent (see `ParentSeed`); every candidate is then scored the same
    /// way. Each candidate's `memo` output is its own, ready to seed its
    /// offspring's hints. Results are bit-identical with and without hints
    /// and across thread counts (sample indices and trace points follow
    /// input order, and a seed only skips `fits` calls whose answer is
    /// known).
    pub fn evaluate_candidates(&self, candidates: &mut [EvalCandidate]) -> Vec<Option<f64>> {
        let mut groups = [EvalGroup {
            candidates,
            objective: self.objective,
            funding: Funding::Context,
        }];
        self.evaluate_groups(&mut groups);
        groups[0].candidates.iter().map(|c| c.cost).collect()
    }

    /// Evaluates a driver's [`EvalBatch`] — every chunk of every candidate
    /// — as **one** engine dispatch, honoring each chunk's objective and
    /// funding overrides.
    ///
    /// Funding is drawn in chunk order, candidate order (a chunk whose
    /// budget runs dry leaves its remaining candidates unfunded and moves
    /// on to the next chunk, whose own budget may still have capacity).
    /// Trace points follow that same funding order, so interleaved
    /// sub-searches sharing one dispatch stay bit-identical at any thread
    /// count.
    pub fn evaluate_chunks(&self, batch: &mut EvalBatch) {
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
        self.evaluate_groups(&mut groups);
    }

    /// The shared grouped evaluation core: fund in group/input order, run
    /// every funded candidate in one pool dispatch, record trace points in
    /// funding order.
    fn evaluate_groups(&self, groups: &mut [EvalGroup<'_>]) {
        // A quarantined batch aborts the step family: once a worker panic
        // was caught, refuse further funding so the caller unwinds with
        // budget accounting and trace still consistent.
        if self.fault_abort().is_some() {
            return;
        }
        // Injected budget exhaustion: revoke the pool *before* funding,
        // so this batch degrades exactly like a naturally dry budget
        // (unfunded candidates, no trace points, no stranded samples).
        if self.faults.should_inject(FaultSite::BudgetRevoke) {
            self.budget.revoke();
            self.faults.log().note_budget_revocation();
        }
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
        // Per-job fault draws happen here, in the serial funding-order
        // section, so injection points are a pure function of the plan's
        // seed and the funding sequence — bit-identical at any thread
        // count. The disabled-plan hot path allocates nothing.
        let injections: Vec<(bool, bool)> = if self.faults.is_enabled() {
            (0..jobs.len())
                .map(|_| {
                    (
                        self.faults.should_inject(FaultSite::EvalError),
                        self.faults.should_inject(FaultSite::WorkerPanic),
                    )
                })
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
        // One pool job per funded candidate: repair, probe, score on a
        // miss, record. Fault injection wraps this same job: a drawn
        // worker panic fires before the body runs, and a drawn evaluator
        // error evaluates the candidate once more, discarding the first
        // result.
        let dispatched = self.engine.try_dispatch(jobs.len(), |i| {
            let (eval_error, worker_panic) = injections.get(i).copied().unwrap_or_default();
            if worker_panic {
                panic!("cocco-faults: injected worker panic");
            }
            let (slot, objective, sample) = &jobs[i];
            let candidate: &mut EvalCandidate = &mut slot.lock().unwrap();
            let timer = tallies.get(i).map(|slot| (slot, Stopwatch::start()));
            let fits_calls = self.take_hint_and_repair(candidate);
            if let Some(([ns, calls], sw)) = timer {
                ns.store(sw.elapsed_nanos(), Ordering::Relaxed);
                calls.store(fits_calls, Ordering::Relaxed);
            }
            if eval_error {
                // Injected transient evaluator failure: the first attempt's
                // result is discarded. Scoring is a pure function of its
                // inputs, so the retry is bit-identical to the fault-free
                // run.
                let _ = self.score_candidate(i, &candidate.genome);
                self.faults.log().note_eval_rescore();
            }
            let (scored, memo) = self.score_candidate(i, &candidate.genome);
            self.finish_scored(&results, i, *objective, *sample, candidate, scored, memo);
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
            self.quarantine_batch(panic.message, groups, &funded_per_group);
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
    /// the genome in place, seeded with what the parent proved. Pure per
    /// candidate, so it runs inside the candidate's pool job. Returns how
    /// many `fits` calls the repair made.
    fn take_hint_and_repair(&self, candidate: &mut EvalCandidate) -> u64 {
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
        candidate.genome.partition = repair_seeded(self.graph, partition, &fits, &mut delta, seed);
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

    /// Scores one repaired candidate as batch job `seq`: probe the cache,
    /// and on a miss compute from the probe's key material, staging the
    /// new entry for the engine's batch-end funding-order publication.
    fn score_candidate(&self, seq: usize, genome: &Genome) -> (ScoredEval, Option<Arc<EvalMemo>>) {
        let (partition, buffer) = (&genome.partition, &genome.buffer);
        match self
            .engine
            .prepare_partition(self.evaluator, partition, buffer, self.options, None)
        {
            PartitionProbe::Hit(scored, memo) => (scored, memo),
            PartitionProbe::Miss(prepared) => self.engine.score_prepared(
                seq as u64,
                self.evaluator,
                partition,
                buffer,
                self.options,
                None,
                prepared,
            ),
        }
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
    /// evaluator's statistics cache.
    pub fn subgraph_cost(&self, members: &[NodeId], buffer: &BufferConfig) -> Option<f64> {
        if !self.fits(members, buffer) {
            return None;
        }
        // score_single borrows `members` directly — no owned partition is
        // allocated in this (greedy/DP/enumeration) hot loop.
        let scored = self
            .engine
            .score_single(self.evaluator, members, buffer, self.options);
        if scored.error {
            self.trace.record_infeasible_error();
            return None;
        }
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

    #[test]
    fn evaluate_consumes_budget_and_traces() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = context(&g, &eval, 2);
        let mut genome = Genome::new(
            Partition::singletons(g.len()),
            BufferConfig::shared(1 << 20),
        );
        assert!(ctx.evaluate(&mut genome).is_some());
        assert!(ctx.evaluate(&mut genome).is_some());
        assert!(ctx.evaluate(&mut genome).is_none());
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
        let mut genome = Genome::new(
            Partition::from_assignment(vec![0, 0, 0, 1, 0]),
            BufferConfig::shared(1 << 20),
        );
        let cost = ctx.evaluate(&mut genome).unwrap();
        assert!(cost.is_finite());
        assert!(genome.partition.validate(&g).is_ok());
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
        let costs = ctx.evaluate_batch(&mut genomes);
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
            let costs = ctx.evaluate_batch(&mut genomes);
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
            let costs = ctx.evaluate_batch(&mut genomes);
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
        let p = ctx.repair(
            Partition::connected_groups(&g, 3),
            &BufferConfig::shared(1 << 20),
        );
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
    fn injected_eval_errors_rescore_bit_identically() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let genomes = || -> Vec<Genome> {
            (0..24)
                .map(|i| {
                    Genome::new(
                        Partition::connected_groups(&g, 2 + i % 5),
                        BufferConfig::shared(1 << 20),
                    )
                })
                .collect()
        };
        let plain_ctx = context(&g, &eval, 24);
        let mut plain_genomes = genomes();
        let plain = (
            plain_ctx.evaluate_batch(&mut plain_genomes),
            plain_ctx.trace().points(),
        );
        let rates = cocco_faults::FaultRates::none().with(FaultSite::EvalError, 0.5);
        let faulty_ctx = context(&g, &eval, 24).with_faults(FaultPlan::seeded(7, rates));
        let mut faulty_genomes = genomes();
        let faulty = (
            faulty_ctx.evaluate_batch(&mut faulty_genomes),
            faulty_ctx.trace().points(),
        );
        assert_eq!(
            plain, faulty,
            "transient eval errors must not change results"
        );
        assert_eq!(plain_genomes, faulty_genomes);
        assert!(faulty_ctx.faults().log().eval_rescores() > 0);
        assert!(faulty_ctx.fault_abort().is_none());
    }

    #[test]
    fn injected_eval_errors_dispatch_like_production() {
        // The fault seam wraps the production job: a transparent
        // evaluator-error schedule hands the pool exactly the jobs the
        // fault-free run does, including on a warm second batch.
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
                ctx.evaluate_batch(&mut genomes);
            }
            ctx.engine().metrics().counter("engine.pool.dispatched")
        };
        let rates = cocco_faults::FaultRates::none().with(FaultSite::EvalError, 0.5);
        assert_eq!(
            dispatched(FaultPlan::disabled()),
            dispatched(FaultPlan::seeded(7, rates))
        );
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
            let costs = ctx.evaluate_batch(&mut genomes);
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
            assert!(ctx.evaluate_batch(&mut more).iter().all(Option::is_none));
            assert_eq!(ctx.budget().used(), 0);
        }
    }

    #[test]
    fn injected_budget_revocation_degrades_like_exhaustion() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let rates = cocco_faults::FaultRates::none().with(FaultSite::BudgetRevoke, 1.0);
        let ctx = context(&g, &eval, 100).with_faults(FaultPlan::seeded(5, rates));
        let mut genomes: Vec<Genome> = (0..3)
            .map(|_| {
                Genome::new(
                    Partition::singletons(g.len()),
                    BufferConfig::shared(1 << 20),
                )
            })
            .collect();
        let costs = ctx.evaluate_batch(&mut genomes);
        assert!(
            costs.iter().all(Option::is_none),
            "revoked budget funds nothing"
        );
        assert!(ctx.budget().is_revoked());
        assert_eq!(ctx.budget().remaining(), 0);
        assert_eq!(ctx.trace().len() as u64, ctx.budget().used());
        assert_eq!(ctx.faults().log().budget_revocations(), 1);
        assert!(ctx.fault_abort().is_none(), "revocation is not an abort");
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
