//! The Cocco genetic co-exploration engine (paper §4.3-§4.4, Figure 9).

use crate::context::{EvalCandidate, EvalHint, SearchContext};
use crate::driver::{
    rng_from_state, rng_state, run_driver, DriverState, EvalBatch, SearchDriver, Step,
};
use crate::genome::Genome;
use crate::outcome::{SearchOutcome, Searcher};
use cocco_engine::EvalMemo;
use cocco_graph::Graph;
use cocco_partition::{LayoutArena, Partition, PartitionDelta, QuotientSuccessors};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One scored population member: the genome, its cost and the evaluation's
/// memo (the coordinates that seed its offspring's repair).
#[derive(Clone, Debug)]
struct Member {
    genome: Genome,
    cost: f64,
    memo: Option<Arc<EvalMemo>>,
}

/// Per-operation mutation probabilities (each applied independently).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MutationRates {
    /// `modify-node`: move one node to another (possibly new) subgraph.
    pub modify_node: f64,
    /// `split-subgraph`: split one subgraph at a random topological point.
    pub split_subgraph: f64,
    /// `merge-subgraph`: merge two randomly selected subgraphs.
    pub merge_subgraph: f64,
    /// `mutation-DSE`: Gaussian-perturb the memory configuration.
    pub dse: f64,
    /// Standard deviation of the DSE perturbation as a fraction of the
    /// capacity range span.
    pub dse_sigma: f64,
}

impl Default for MutationRates {
    fn default() -> Self {
        Self {
            modify_node: 0.5,
            split_subgraph: 0.3,
            merge_subgraph: 0.3,
            dse: 0.4,
            dse_sigma: 0.15,
        }
    }
}

/// Configuration of [`CoccoGa`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaConfig {
    /// Genomes per generation.
    pub population: usize,
    /// Tournament size for survivor selection.
    pub tournament: usize,
    /// Fraction of offspring produced by crossover (the rest are mutated
    /// copies of tournament winners).
    pub crossover_fraction: f64,
    /// Mutation probabilities.
    pub mutation: MutationRates,
    /// RNG seed (searches are fully deterministic under a fixed seed, at
    /// any engine thread count).
    pub seed: u64,
    /// Optional warm-start partitions (paper benefit 4: initialize GA from
    /// other optimizers and fine-tune).
    pub initial: Vec<Partition>,
}

impl Default for GaConfig {
    fn default() -> Self {
        Self {
            population: 100,
            tournament: 3,
            crossover_fraction: 0.6,
            mutation: MutationRates::default(),
            seed: 0xC0CC0,
            initial: Vec::new(),
        }
    }
}

/// The Cocco genetic algorithm: co-explores graph partitions and memory
/// configurations with the paper's customized crossover and mutations,
/// in-situ capacity repair and tournament selection.
///
/// Each generation is one driver step, scored by one
/// [`evaluate_chunks`](SearchContext::evaluate_chunks) dispatch, so the
/// fitness evaluation spreads over the context's engine pool (DiGamma-style
/// population parallelism) while staying bit-identical to a serial run.
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, CoccoGa, Objective, SearchContext, Searcher};
/// use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::diamond();
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::paper_shared(),
///     Objective::paper_energy_capacity(),
///     1_000,
/// );
/// let outcome = CoccoGa::default().with_seed(42).run(&ctx);
/// assert!(outcome.best.is_some());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CoccoGa {
    config: GaConfig,
}

impl CoccoGa {
    /// Creates the engine from an explicit configuration.
    pub fn new(config: GaConfig) -> Self {
        Self { config }
    }

    /// The engine configuration.
    pub fn config(&self) -> &GaConfig {
        &self.config
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the population size.
    pub fn with_population(mut self, population: usize) -> Self {
        self.config.population = population.max(2);
        self
    }

    /// Warm-starts the population with existing partitions.
    pub fn with_initial(mut self, initial: Vec<Partition>) -> Self {
        self.config.initial = initial;
        self
    }
}

impl CoccoGa {
    /// The GA as a resumable [`SearchDriver`].
    pub fn driver(&self) -> GaDriver {
        GaDriver::new(self.config.clone())
    }
}

impl Searcher for CoccoGa {
    fn name(&self) -> &'static str {
        "Cocco (GA)"
    }

    fn run(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        run_driver(&mut self.driver(), ctx)
    }
}

/// Where the GA state machine stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum GaPhase {
    /// The initial population is being built/evaluated.
    Seed,
    /// Generations are running.
    Evolve,
    /// The budget ran out (or the population died).
    Done,
}

/// One serialized population member (the in-memory memo is dropped — a
/// resumed run's first offspring repair unseeded, bit-identically).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct GaMember {
    genome: Genome,
    cost: f64,
}

/// Serializable state of a [`GaDriver`], valid between any two steps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GaState {
    rng: Vec<u64>,
    phase: GaPhase,
    population: Vec<GaMember>,
    /// Warm partitions queued for injection into the next generation
    /// (cross-candidate elite migration in the interleaved two-step).
    pending: Vec<Partition>,
    outcome: SearchOutcome,
}

/// The genetic algorithm as a step-driven state machine: one
/// [`next_batch`](SearchDriver::next_batch) builds one generation (the
/// seed population first), one [`absorb`](SearchDriver::absorb) folds the
/// scored generation and runs survivor selection. RNG draws happen in the
/// exact order of the former monolithic loop, so `CoccoGa::run`, manual
/// stepping and a checkpoint-resumed run are bit-identical.
#[derive(Debug)]
pub struct GaDriver {
    config: GaConfig,
    rng: StdRng,
    phase: GaPhase,
    population: Vec<Member>,
    pending: Vec<Partition>,
    outcome: SearchOutcome,
    scratch: MutationScratch,
}

impl GaDriver {
    /// A fresh driver (seeds its RNG from the configuration).
    pub fn new(config: GaConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            phase: GaPhase::Seed,
            population: Vec::new(),
            pending: Vec::new(),
            outcome: SearchOutcome::empty(),
            scratch: MutationScratch::default(),
        }
    }

    /// Resumes a driver from a serialized state (memos start empty, so the
    /// first resumed generation repairs unseeded; results unchanged).
    pub fn from_state(config: GaConfig, state: GaState) -> Self {
        Self {
            config,
            rng: rng_from_state(&state.rng),
            phase: state.phase,
            population: state
                .population
                .into_iter()
                .map(|m| Member {
                    genome: m.genome,
                    cost: m.cost,
                    memo: None,
                })
                .collect(),
            pending: state.pending,
            outcome: state.outcome,
            scratch: MutationScratch::default(),
        }
    }

    /// Queues a warm partition for injection into the next generation —
    /// how the interleaved two-step migrates elites between capacity
    /// candidates ("combining the information between different sizes",
    /// the very ability the paper says the two-step scheme lacks).
    pub fn inject(&mut self, partition: Partition) {
        self.pending.push(partition);
    }

    /// Builds the seed population, drawing RNG in the legacy order
    /// (paper §4.4.1: warm starts, structured seeds, random genomes).
    fn seed_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<EvalCandidate> {
        let cfg = &self.config;
        let graph = ctx.graph();
        let mut seeds: Vec<Genome> = cfg
            .initial
            .iter()
            .map(|p| Genome::new(p.clone(), ctx.space.sample(&mut self.rng)))
            .collect();
        // A few structured seeds (fused connected groups at several sizes)
        // alongside the random genomes: they compensate for scaled-down
        // sample budgets without changing what the search can express.
        for l in [2usize, 3, 5, 8, 13] {
            if seeds.len() < cfg.population {
                seeds.push(Genome::new(
                    Partition::connected_groups(graph, l),
                    ctx.space.sample(&mut self.rng),
                ));
            }
        }
        while seeds.len() < cfg.population {
            seeds.push(Genome::random(graph, &ctx.space, &mut self.rng));
        }
        seeds.truncate(cfg.population);
        seeds.into_iter().map(EvalCandidate::new).collect()
    }

    /// Builds one generation of offspring. Queued warm injections go
    /// first (they displace random offspring, never grow the generation);
    /// the rest is the paper's crossover/mutation mix.
    fn offspring_batch(&mut self, ctx: &SearchContext<'_>) -> Vec<EvalCandidate> {
        let cfg = &self.config;
        let graph = ctx.graph();
        let mut offspring: Vec<EvalCandidate> = Vec::with_capacity(cfg.population);
        for partition in self.pending.drain(..) {
            if offspring.len() < cfg.population {
                offspring.push(EvalCandidate::new(Genome::new(
                    partition,
                    ctx.space.sample(&mut self.rng),
                )));
            }
        }
        while offspring.len() < cfg.population {
            let child = if self.rng.gen_bool(cfg.crossover_fraction.clamp(0.0, 1.0))
                && self.population.len() >= 2
            {
                let dad_idx = self.rng.gen_range(0..self.population.len());
                let mom_idx = self.rng.gen_range(0..self.population.len());
                let (dad, mom) = (
                    &self.population[dad_idx].genome,
                    &self.population[mom_idx].genome,
                );
                let mut child = Genome::new(
                    crossover(graph, &dad.partition, &mom.partition, &mut self.rng),
                    ctx.space.blend(dad.buffer, mom.buffer),
                );
                // A crossover child reproduces whole parent subgraphs,
                // but its edits are of unknown extent, so the honest
                // delta against dad (required by repair's parent seed)
                // is a direct diff: exactly the nodes whose member set
                // changed are marked.
                let mut delta = match &self.population[dad_idx].memo {
                    Some(_) => PartitionDelta::between(&dad.partition, &child.partition),
                    None => PartitionDelta::all(graph.len()),
                };
                mutate_with_delta(
                    ctx,
                    graph,
                    &mut child,
                    &cfg.mutation,
                    &mut self.rng,
                    &mut delta,
                    &mut self.scratch,
                );
                let hint = self.population[dad_idx]
                    .memo
                    .clone()
                    .map(|memo| EvalHint { memo, delta });
                EvalCandidate::with_hint(child, hint)
            } else {
                let parent = tournament(&self.population, cfg.tournament, &mut self.rng);
                let mut child = self.population[parent].genome.clone();
                let mut delta = PartitionDelta::clean(graph.len());
                mutate_with_delta(
                    ctx,
                    graph,
                    &mut child,
                    &cfg.mutation,
                    &mut self.rng,
                    &mut delta,
                    &mut self.scratch,
                );
                let hint = self.population[parent]
                    .memo
                    .clone()
                    .map(|memo| EvalHint { memo, delta });
                EvalCandidate::with_hint(child, hint)
            };
            offspring.push(child);
        }
        offspring
    }
}

impl SearchDriver for GaDriver {
    fn name(&self) -> &'static str {
        "Cocco (GA)"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        match self.phase {
            GaPhase::Seed => Step::Evaluate(EvalBatch::single(self.seed_batch(ctx))),
            GaPhase::Evolve => {
                if ctx.budget().is_exhausted() || self.population.is_empty() {
                    self.phase = GaPhase::Done;
                    return Step::Done;
                }
                Step::Evaluate(EvalBatch::single(self.offspring_batch(ctx)))
            }
            GaPhase::Done => Step::Done,
        }
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, batch: EvalBatch) {
        let cfg = &self.config;
        let evaluated = batch.chunks.into_iter().flat_map(|c| c.candidates);
        match self.phase {
            GaPhase::Seed => {
                for candidate in evaluated {
                    let Some(cost) = candidate.cost else { break };
                    self.outcome.samples += 1;
                    self.outcome.consider(&candidate.genome, cost);
                    self.population.push(Member {
                        genome: candidate.genome,
                        cost,
                        memo: candidate.memo,
                    });
                }
                self.phase = GaPhase::Evolve;
            }
            GaPhase::Evolve => {
                // Fold the scored generation, then survivor selection:
                // elitism + tournaments over the combined pool.
                let mut pool = std::mem::take(&mut self.population);
                for candidate in evaluated {
                    let Some(cost) = candidate.cost else { break };
                    self.outcome.samples += 1;
                    self.outcome.consider(&candidate.genome, cost);
                    pool.push(Member {
                        genome: candidate.genome,
                        cost,
                        memo: candidate.memo,
                    });
                }
                let mut next: Vec<Member> = Vec::with_capacity(cfg.population);
                if let Some(best_idx) = pool
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.cost.total_cmp(&b.1.cost))
                    .map(|(i, _)| i)
                {
                    next.push(pool[best_idx].clone());
                }
                while next.len() < cfg.population && !pool.is_empty() {
                    let w = tournament(&pool, cfg.tournament, &mut self.rng);
                    next.push(pool[w].clone());
                }
                self.population = next;
            }
            GaPhase::Done => {}
        }
    }

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::Ga(GaState {
            rng: rng_state(&self.rng),
            phase: self.phase,
            population: self
                .population
                .iter()
                .map(|m| GaMember {
                    genome: m.genome.clone(),
                    cost: m.cost,
                })
                .collect(),
            pending: self.pending.clone(),
            outcome: self.outcome.clone(),
        })
    }
}

/// Index of the best genome among `k` uniformly sampled contestants.
fn tournament(pool: &[Member], k: usize, rng: &mut StdRng) -> usize {
    let mut best = rng.gen_range(0..pool.len());
    for _ in 1..k.max(1) {
        let challenger = rng.gen_range(0..pool.len());
        if pool[challenger].cost < pool[best].cost {
            best = challenger;
        }
    }
    best
}

/// The paper's crossover (Fig. 9b): scan layers in topological order; each
/// undecided layer picks a random parent and reproduces that parent's whole
/// subgraph; collisions with already-decided layers are resolved by either
/// splitting the undecided remainder into a new subgraph (Child-1) or
/// merging it into a decided layer's subgraph (Child-2), chosen at random.
pub(crate) fn crossover(
    graph: &Graph,
    dad: &Partition,
    mom: &Partition,
    rng: &mut StdRng,
) -> Partition {
    let n = graph.len();
    // Member lists per parent subgraph id, flat: id `s` owns
    // `members[offsets[s]..offsets[s + 1]]` (a counting sort by id).
    let members_of = |p: &Partition| -> (Vec<usize>, Vec<usize>) {
        let ids = p.assignment();
        let mut offsets = vec![0usize; ids.iter().max().map_or(0, |&m| m as usize) + 3];
        for &a in ids {
            offsets[a as usize + 2] += 1;
        }
        for s in 2..offsets.len() {
            offsets[s] += offsets[s - 1];
        }
        let mut members = vec![0usize; ids.len()];
        for (i, &a) in ids.iter().enumerate() {
            members[offsets[a as usize + 1]] = i;
            offsets[a as usize + 1] += 1;
        }
        (offsets, members)
    };
    let dad_members = members_of(dad);
    let mom_members = members_of(mom);

    const UNDECIDED: u32 = u32::MAX;
    let mut child = vec![UNDECIDED; n];
    let mut next_id = 0u32;
    for v in 0..n {
        if child[v] != UNDECIDED {
            continue;
        }
        let (parent, members) = if rng.gen_bool(0.5) {
            (dad, &dad_members)
        } else {
            (mom, &mom_members)
        };
        let sg = parent.subgraph_of(cocco_graph::NodeId::from_index(v)) as usize;
        let (offsets, members) = members;
        let group = &members[offsets[sg]..offsets[sg + 1]];
        let decided = group.iter().filter(|&&u| child[u] != UNDECIDED).count();
        if decided == 0 {
            for &u in group {
                child[u] = next_id;
            }
            next_id += 1;
        } else if rng.gen_bool(0.5) {
            // Child-1: the undecided remainder becomes a new subgraph.
            for &u in group {
                if child[u] == UNDECIDED {
                    child[u] = next_id;
                }
            }
            next_id += 1;
        } else {
            // Child-2: merge the remainder into a decided member's subgraph.
            let pick = rng.gen_range(0..decided);
            let mut decided = group.iter().filter(|&&u| child[u] != UNDECIDED);
            let target = decided.nth(pick).map_or(UNDECIDED, |&u| child[u]);
            for &u in group {
                if child[u] == UNDECIDED {
                    child[u] = target;
                }
            }
        }
    }
    Partition::from_assignment(child)
}

/// The reusable buffers of the mutation operators: one flat member layout
/// and the quotient's successor rows. Their contents never reach a result.
#[derive(Debug, Default)]
pub(crate) struct MutationScratch {
    layout: LayoutArena,
    succs: QuotientSuccessors,
}

/// Applies the four customized mutations, each with its own probability
/// (shared with the simulated-annealing baseline, paper §4.2.4), recording
/// into `delta` every node whose subgraph membership changes.
///
/// The delta invariant is member-set based: an operator that changes a
/// subgraph's member set marks **all** of that subgraph's (old and new)
/// members, so an unmarked subgraph is guaranteed untouched and repair may
/// take it for the parent's. A DSE (buffer) perturbation marks no nodes —
/// repair compares the buffer against the parent memo's itself and asks
/// `fits` again when any component shrank.
pub(crate) fn mutate_with_delta(
    ctx: &SearchContext<'_>,
    graph: &Graph,
    genome: &mut Genome,
    rates: &MutationRates,
    rng: &mut StdRng,
    delta: &mut PartitionDelta,
    scratch: &mut MutationScratch,
) {
    let n = graph.len();
    if rng.gen_bool(rates.modify_node.clamp(0.0, 1.0)) {
        // modify-node: reassign one node to a neighbouring subgraph (the
        // subgraph of one of its producers/consumers, keeping the move
        // local as in paper Fig. 9c) or to a fresh one.
        let node = cocco_graph::NodeId::from_index(rng.gen_range(0..n));
        let mut candidates: Vec<u32> = graph
            .producers(node)
            .iter()
            .chain(graph.consumers(node).iter())
            .map(|&v| genome.partition.subgraph_of(v))
            .filter(|&sg| sg != genome.partition.subgraph_of(node))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.push(genome.partition.fresh_id());
        let target = candidates[rng.gen_range(0..candidates.len())];
        // Both the donor's and the receiver's member sets change.
        delta.touch_subgraph(&genome.partition, genome.partition.subgraph_of(node));
        delta.touch_subgraph(&genome.partition, target);
        delta.touch(node);
        genome.partition.assign(node, target);
    }
    // One flat member layout serves both structural operators; subgraph
    // `i` of the layout is compact quotient id `i` (both ascend by id).
    let MutationScratch {
        layout: arena,
        succs,
    } = scratch;
    if rng.gen_bool(rates.split_subgraph.clamp(0.0, 1.0)) {
        // split-subgraph: cut one subgraph at a random topological point.
        let layout = arena.build_from_partition(&genome.partition);
        let splittable = || layout.iter().filter(|g| g.len() >= 2);
        let count = splittable().count();
        if count > 0 {
            if let Some(group) = splittable().nth(rng.gen_range(0..count)) {
                let cut = rng.gen_range(1..group.len());
                let fresh = genome.partition.fresh_id();
                delta.touch_members(group);
                for &m in &group[cut..] {
                    genome.partition.assign(m, fresh);
                }
            }
        }
    }
    if rng.gen_bool(rates.merge_subgraph.clamp(0.0, 1.0)) {
        // merge-subgraph: merge across a random quotient edge (merging
        // non-adjacent subgraphs would only trigger a bigger SCC repair).
        // Edges are numbered source-major, targets ascending.
        succs.build(graph, &genome.partition);
        let edges = succs.num_edges();
        if edges > 0 {
            let mut pick = rng.gen_range(0..edges);
            let layout = arena.build_from_partition(&genome.partition);
            for a in 0..succs.num_subgraphs() as u32 {
                let succs = succs.succs(a);
                if pick >= succs.len() {
                    pick -= succs.len();
                    continue;
                }
                let (from, into) = (
                    layout.subgraph(succs[pick] as usize),
                    layout.subgraph(a as usize),
                );
                let target = genome.partition.subgraph_of(into[0]);
                delta.touch_members(into);
                delta.touch_members(from);
                for &m in from {
                    genome.partition.assign(m, target);
                }
                break;
            }
        }
    }
    if !ctx.space.is_fixed() && rng.gen_bool(rates.dse.clamp(0.0, 1.0)) {
        genome.buffer = ctx.space.perturb(genome.buffer, rates.dse_sigma, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};

    fn ctx_fixed<'a>(graph: &'a Graph, eval: &'a Evaluator<'a>, budget: u64) -> SearchContext<'a> {
        SearchContext::new(
            graph,
            eval,
            BufferSpace::fixed(BufferConfig::shared(1 << 20)),
            Objective::partition_only(CostMetric::Ema),
            budget,
        )
    }

    #[test]
    fn finds_optimum_on_tiny_chain() {
        // With a huge buffer, the optimal partition of a chain is a single
        // subgraph (weights + input + output only).
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::shared(8 << 20)),
            Objective::partition_only(CostMetric::Ema),
            2_000,
        );
        let outcome = CoccoGa::default().with_seed(1).run(&ctx);
        let best = outcome.best.unwrap();
        assert_eq!(best.partition.num_subgraphs(), 1);
        let floor = g.total_weight_elements()
            + g.out_elements(g.input_ids()[0])
            + g.out_elements(g.output_ids()[0]);
        assert_eq!(outcome.best_cost, floor as f64);
    }

    #[test]
    fn deterministic_under_seed() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |seed| {
            let ctx = ctx_fixed(&g, &eval, 500);
            CoccoGa::default().with_seed(seed).run(&ctx).best_cost
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn identical_results_at_any_thread_count() {
        use cocco_engine::EngineConfig;
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let run = |threads: u32| {
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                600,
            )
            .with_engine(EngineConfig::with_threads(threads));
            let out = CoccoGa::default()
                .with_population(24)
                .with_seed(13)
                .run(&ctx);
            (out.best_cost, out.best, ctx.trace().points())
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.0, parallel.0, "best cost differs");
        assert_eq!(serial.1, parallel.1, "best genome differs");
        assert_eq!(serial.2, parallel.2, "trace differs");
    }

    #[test]
    fn crossover_children_inherit_parent_subgraphs() {
        let g = cocco_graph::models::chain(5); // 6 nodes
        let dad = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let mom = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..20 {
            let child = crossover(&g, &dad, &mom, &mut rng);
            assert_eq!(child.len(), 6);
            // Every node is decided.
            assert!(child.assignment().iter().all(|&a| a != u32::MAX));
        }
    }

    #[test]
    fn crossover_of_identical_parents_is_identity() {
        let g = cocco_graph::models::chain(4);
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 1]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut child = crossover(&g, &p, &p, &mut rng);
        child.canonicalize(&g);
        assert_eq!(child, p);
    }

    #[test]
    fn evaluated_genomes_are_always_valid() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx_fixed(&g, &eval, 300);
        let outcome = CoccoGa::default()
            .with_seed(11)
            .with_population(20)
            .run(&ctx);
        let best = outcome.best.unwrap();
        assert!(best.partition.validate(&g).is_ok());
    }

    #[test]
    fn co_exploration_moves_buffer_size() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            1_500,
        );
        let outcome = CoccoGa::default()
            .with_seed(2)
            .with_population(30)
            .run(&ctx);
        let best = outcome.best.unwrap();
        // Formula 2 punishes the 3 MB extreme; the chosen size should be
        // strictly inside the range.
        let total = best.buffer.total_bytes();
        assert!(total < 3072 << 10, "picked {total}");
    }

    #[test]
    fn warm_start_is_respected() {
        let g = cocco_graph::models::chain(4);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx_fixed(&g, &eval, 50);
        let warm = Partition::whole(g.len());
        let outcome = CoccoGa::default()
            .with_seed(3)
            .with_population(4)
            .with_initial(vec![warm])
            .run(&ctx);
        // The whole-graph partition fits in 1 MB and is optimal here, so
        // the warm start's cost must be the final answer.
        assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
    }

    #[test]
    fn budget_is_respected() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx_fixed(&g, &eval, 37);
        let outcome = CoccoGa::default().with_seed(5).run(&ctx);
        assert_eq!(outcome.samples, 37);
        assert_eq!(ctx.budget().used(), 37);
        assert_eq!(ctx.trace().len(), 37);
    }
}
