//! Two-step exploration baselines: capacity sampling followed by
//! partition-only GA (paper §5.1.3, "RS+GA" and "GS+GA").

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::ga::{check_partition, GaConfig, GaDriver, GaState};
use crate::genome::Genome;
use crate::objective::{BufferSpace, Objective};
use crate::outcome::SearchOutcome;
use cocco_engine::SampleBudget;
use cocco_graph::Graph;
use cocco_sim::BufferConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How the first step picks capacity candidates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CapacitySampling {
    /// Uniform random candidates from the space ("RS").
    Random,
    /// Evenly spaced grid candidates traversed from large to small ("GS" —
    /// the paper notes the deterministic large-to-small direction makes its
    /// convergence time depend on where the optimum lies).
    Grid,
}

/// The decoupled two-step scheme: sample memory-capacity candidates, run a
/// partition-only GA for each (a fixed per-candidate sample budget, 5 000
/// in the paper), and keep the best Formula-2 cost.
///
/// The candidates run one after another, each inner GA from scratch —
/// which is why, in the paper's words, "the two-step scheme fails to
/// combine the information between different sizes". Each inner GA draws
/// from a [`SampleBudget`] slice of the outer budget and runs on a derived
/// context, so its generation batches use the outer context's engine —
/// same worker pool, one shared memoization cache (re-proposed partitions
/// under the same buffer score for free).
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, Objective, SearchContext, SearchMethod, TwoStep};
/// use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::diamond();
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::paper_shared(),
///     Objective::co_exploration(CostMetric::Energy, 0.002),
///     1_000,
/// );
/// let two_step = SearchMethod::TwoStep(TwoStep::random().with_per_candidate(200));
/// let outcome = two_step.run(&ctx);
/// assert!(outcome.best.is_some());
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoStep {
    /// Candidate sampling strategy.
    pub sampling: CapacitySampling,
    /// Samples granted to each inner partition-only GA.
    pub per_candidate: u64,
    /// Inner GA configuration.
    pub ga: GaConfig,
    /// Seed for candidate sampling.
    pub seed: u64,
}

impl TwoStep {
    /// Random-search capacity sampling (RS+GA) with the paper's 5 000
    /// samples per candidate.
    pub fn random() -> Self {
        Self {
            sampling: CapacitySampling::Random,
            per_candidate: 5_000,
            ga: GaConfig::default(),
            seed: 0xC0CC0,
        }
    }

    /// Grid-search capacity sampling (GS+GA).
    pub fn grid() -> Self {
        Self {
            sampling: CapacitySampling::Grid,
            ..Self::random()
        }
    }

    /// Sets the per-candidate inner budget.
    pub fn with_per_candidate(mut self, samples: u64) -> Self {
        self.per_candidate = samples.max(1);
        self
    }

    /// Sets the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The inner GA configuration of candidate `i`.
    fn ga_config(&self, i: usize) -> GaConfig {
        let mut cfg = self.ga.clone();
        cfg.seed = self.seed.wrapping_add(i as u64 + 1);
        cfg
    }
}

/// Where the two-step state machine stands.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum TsPhase {
    /// Capacity candidates not yet sampled.
    Init,
    /// Inner GAs running.
    Run,
    /// Finished.
    Done,
}

/// The serialized live inner GA.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct TsSlotState {
    ga: GaState,
    buffer: BufferConfig,
    /// Slice capacity still unconsumed at snapshot time.
    remaining: u64,
}

/// Serializable state of a [`TwoStepDriver`], valid between any two steps.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TwoStepState {
    phase: TsPhase,
    candidates: Vec<BufferConfig>,
    next_candidate: u64,
    live: Option<TsSlotState>,
    alpha: Option<f64>,
    outcome: SearchOutcome,
}

impl TwoStepState {
    /// Checks the state against the graph it resumes on: the live inner
    /// GA's state must pass the GA's own check, the next candidate must
    /// not lie past the candidate list, and a best design must be a
    /// partition of the graph.
    pub(crate) fn check(&self, graph: &Graph) -> Result<(), String> {
        if let Some(live) = &self.live {
            live.ga
                .check(graph)
                .map_err(|e| format!("two-step live slot: {e}"))?;
        }
        if self.next_candidate > self.candidates.len() as u64 {
            return Err(format!(
                "two-step next candidate {} is past its {} candidates",
                self.next_candidate,
                self.candidates.len()
            ));
        }
        if let Some(best) = &self.outcome.best {
            check_partition(graph, &best.partition)
                .map_err(|e| format!("two-step best design: {e}"))?;
        }
        Ok(())
    }
}

/// The live inner GA: its driver, capacity candidate and budget slice.
#[derive(Debug)]
struct InnerSlot {
    ga: GaDriver,
    buffer: BufferConfig,
    /// Remaining slice capacity until the slice is materialized (lazily,
    /// because slicing needs the context's budget handle).
    cap: u64,
    slice: Option<Arc<SampleBudget>>,
}

impl InnerSlot {
    /// Adds the inner GA's samples and its best design, scored under
    /// Formula 2 with preference factor `alpha`, to `outcome`.
    fn fold_into(&self, outcome: &mut SearchOutcome, alpha: f64) {
        let sub = self.ga.outcome();
        outcome.samples += sub.samples;
        if let Some(best) = sub.best {
            let cost = self.buffer.total_bytes() as f64 + alpha * sub.best_cost;
            outcome.consider(&Genome::new(best.partition, self.buffer), cost);
        }
    }
}

/// The two-step scheme as a step-driven state machine: one capacity
/// candidate at a time, each step one generation of its inner GA.
#[derive(Debug)]
pub struct TwoStepDriver {
    config: TwoStep,
    phase: TsPhase,
    candidates: Vec<BufferConfig>,
    /// Next candidate to start.
    next_candidate: usize,
    /// The candidate whose inner GA is running, if any.
    live: Option<InnerSlot>,
    /// The Formula-2 preference factor, captured at init so
    /// [`outcome`](SearchDriver::outcome) can score the live slot without
    /// a context.
    alpha: Option<f64>,
    /// Formula-2 bests and samples of finished candidates; the live slot
    /// is merged in on every [`outcome`](SearchDriver::outcome) call.
    outcome: SearchOutcome,
}

impl TwoStepDriver {
    /// A fresh driver under `config`.
    pub fn new(config: TwoStep) -> Self {
        Self {
            config,
            phase: TsPhase::Init,
            candidates: Vec::new(),
            next_candidate: 0,
            live: None,
            alpha: None,
            outcome: SearchOutcome::empty(),
        }
    }

    /// Resumes a driver from a serialized state (the live slice
    /// re-materializes with its remaining capacity on the first step).
    pub fn from_state(config: TwoStep, state: TwoStepState) -> Self {
        let live = state.live.map(|s| InnerSlot {
            // The live slot is the candidate started last.
            ga: GaDriver::from_state(
                config.ga_config((state.next_candidate as usize).saturating_sub(1)),
                s.ga,
            ),
            buffer: s.buffer,
            cap: s.remaining,
            slice: None,
        });
        Self {
            config,
            phase: state.phase,
            candidates: state.candidates,
            next_candidate: state.next_candidate as usize,
            live,
            alpha: state.alpha,
            outcome: state.outcome,
        }
    }

    /// The Formula-2 preference factor; the scheme requires Formula 2.
    fn alpha(ctx: &SearchContext<'_>) -> f64 {
        ctx.objective
            .alpha
            // cocco-audit: allow(R1) the facade rejects two-step without alpha before any driver is built (Error::Config)
            .expect("two-step exploration requires a Formula-2 objective")
    }

    /// Step 1: pick capacity candidates (legacy RNG order).
    fn init(&mut self, ctx: &SearchContext<'_>) {
        self.alpha = Some(Self::alpha(ctx));
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let start_samples = ctx.budget().used();
        let candidate_count =
            (ctx.budget().limit().saturating_sub(start_samples) / self.config.per_candidate).max(1);
        self.candidates = match self.config.sampling {
            CapacitySampling::Random => (0..candidate_count)
                .map(|_| ctx.space.sample(&mut rng))
                .collect(),
            CapacitySampling::Grid => {
                let grid = ctx.space.grid();
                let count = (candidate_count as usize).min(grid.len());
                // Evenly spaced, traversed from the largest down.
                let mut picks: Vec<_> = (0..count)
                    .map(|i| grid[i * grid.len() / count.max(1)])
                    .collect();
                picks.sort_by_key(|c| std::cmp::Reverse(c.total_bytes()));
                picks
            }
        };
        self.phase = TsPhase::Run;
    }

    /// Step 2: one generation of the live candidate's inner GA, starting
    /// the next candidate (or finishing) whenever the live one is done.
    fn next_generation(&mut self, ctx: &SearchContext<'_>) -> Step {
        let objective = Objective::partition_only(ctx.objective.metric);
        loop {
            let slot = match &mut self.live {
                Some(slot) => slot,
                None => {
                    if self.next_candidate >= self.candidates.len() || ctx.budget().is_exhausted() {
                        self.phase = TsPhase::Done;
                        return Step::Done;
                    }
                    let i = self.next_candidate;
                    self.next_candidate += 1;
                    self.live.insert(InnerSlot {
                        ga: GaDriver::new(self.config.ga_config(i)),
                        buffer: self.candidates[i],
                        cap: self.config.per_candidate.min(ctx.budget().remaining()),
                        slice: None,
                    })
                }
            };
            let slice = Arc::clone(slot.slice.get_or_insert_with(|| {
                Arc::new(SampleBudget::slice(ctx.budget_handle(), slot.cap))
            }));
            let inner_ctx = ctx.derive_with_budget(
                BufferSpace::fixed(slot.buffer),
                objective,
                Arc::clone(&slice),
            );
            match slot.ga.next_batch(&inner_ctx) {
                Step::Evaluate(mut batch) => {
                    for chunk in &mut batch.chunks {
                        chunk.objective = Some(objective);
                        chunk.budget = Some(Arc::clone(&slice));
                    }
                    return Step::Evaluate(batch);
                }
                Step::Continue => return Step::Continue,
                Step::Done => {
                    // Fold the finished candidate; loop to start the next.
                    slot.fold_into(&mut self.outcome, Self::alpha(ctx));
                    self.live = None;
                }
            }
        }
    }
}

impl SearchDriver for TwoStepDriver {
    fn name(&self) -> &'static str {
        match self.config.sampling {
            CapacitySampling::Random => "RS+GA",
            CapacitySampling::Grid => "GS+GA",
        }
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        match self.phase {
            TsPhase::Init => {
                self.init(ctx);
                Step::Continue
            }
            TsPhase::Run => self.next_generation(ctx),
            TsPhase::Done => Step::Done,
        }
    }

    fn absorb(&mut self, ctx: &SearchContext<'_>, batch: EvalBatch) {
        let Some(slot) = &mut self.live else {
            return;
        };
        let Some(slice) = &slot.slice else {
            return;
        };
        let inner_ctx = ctx.derive_with_budget(
            BufferSpace::fixed(slot.buffer),
            Objective::partition_only(ctx.objective.metric),
            Arc::clone(slice),
        );
        slot.ga.absorb(&inner_ctx, batch);
    }

    fn outcome(&self) -> SearchOutcome {
        let mut outcome = self.outcome.clone();
        if let (Some(slot), Some(alpha)) = (&self.live, self.alpha) {
            slot.fold_into(&mut outcome, alpha);
        }
        outcome
    }

    fn state(&self) -> DriverState {
        DriverState::TwoStep(TwoStepState {
            phase: self.phase,
            candidates: self.candidates.clone(),
            next_candidate: self.next_candidate as u64,
            live: self.live.as_ref().map(|slot| TsSlotState {
                ga: match slot.ga.state() {
                    DriverState::Ga(state) => state,
                    _ => unreachable!("GA drivers produce GA states"),
                },
                buffer: slot.buffer,
                remaining: slot.slice.as_ref().map_or(slot.cap, |s| s.remaining()),
            }),
            alpha: self.alpha,
            outcome: self.outcome.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SearchMethod;
    use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};

    fn ctx<'a>(
        g: &'a cocco_graph::Graph,
        eval: &'a Evaluator<'a>,
        budget: u64,
    ) -> SearchContext<'a> {
        SearchContext::new(
            g,
            eval,
            BufferSpace::paper_shared(),
            Objective::co_exploration(CostMetric::Energy, 0.002),
            budget,
        )
    }

    #[test]
    fn rs_and_gs_produce_valid_results() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        for config in [TwoStep::random(), TwoStep::grid()] {
            let method = SearchMethod::TwoStep(config.with_per_candidate(150));
            let name = method.name();
            let ctx = ctx(&g, &eval, 600);
            let out = method.run(&ctx);
            let best = out.best.expect(name);
            assert!(best.partition.validate(&g).is_ok());
            assert!(out.best_cost.is_finite());
            assert!(out.samples <= 600);
        }
    }

    #[test]
    fn sequential_mode_is_available_and_valid() {
        // Candidates run one at a time: while the second candidate's GA
        // runs, the first one is already folded, and only one slot lives.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = ctx(&g, &eval, 450);
        let mut driver = TwoStepDriver::new(TwoStep::random().with_per_candidate(150));
        while driver.next_candidate < 2 {
            assert!(crate::drive_step(&mut driver, &ctx), "finished early");
        }
        assert!(driver.live.is_some());
        assert_eq!(driver.outcome.samples, 150, "the first candidate is folded");
        let out = crate::run_driver(&mut driver, &ctx);
        assert!(driver.live.is_none());
        assert_eq!(driver.next_candidate, driver.candidates.len());
        assert!(out.best.expect("two-step").partition.validate(&g).is_ok());
        assert_eq!(out.samples, ctx.budget().used());
    }

    #[test]
    fn grid_traverses_large_to_small() {
        let name = |config: TwoStep| TwoStepDriver::new(config).name();
        assert_eq!(name(TwoStep::grid()), "GS+GA");
        assert_eq!(name(TwoStep::random()), "RS+GA");
    }

    #[test]
    fn respects_global_budget() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::co_exploration(CostMetric::Ema, 0.01),
            100,
        );
        let out = SearchMethod::TwoStep(TwoStep::random().with_per_candidate(40)).run(&ctx);
        assert!(ctx.budget().used() <= 100);
        assert_eq!(out.samples, ctx.budget().used());
    }
}
