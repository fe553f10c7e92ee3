//! Search methods for graph partition and hardware-mapping co-exploration
//! (paper §4.2-§4.4).
//!
//! All methods optimize the same two objectives over the same evaluator:
//!
//! * **Formula 1** (partition-only): `Σ_i Cost_M(subgraph_i)` under a fixed
//!   buffer configuration;
//! * **Formula 2** (co-exploration): `BUF_SIZE + α·Σ_i Cost_M(subgraph_i)`
//!   over a buffer search space.
//!
//! Implemented searchers:
//!
//! | method | paper | type |
//! |---|---|---|
//! | [`CoccoGa`] | §4.3-4.4 | genetic co-exploration (the contribution) |
//! | [`SimulatedAnnealing`] | §4.2.4 | co-exploration baseline |
//! | [`GreedyFusion`] | §4.2.2 | Halide-style merge baseline |
//! | [`DepthDp`] | §4.2.3 | Irregular-NN depth-ordered DP baseline |
//! | [`Exhaustive`] | §4.2.1 | downset state-compression enumeration |
//! | [`TwoStep`] | §5.1.3 | RS+GA / GS+GA capacity-then-partition |
//!
//! Every searcher draws evaluations from a shared [`SampleBudget`] so
//! "samples" are comparable across methods, and records a [`Trace`] for the
//! convergence and distribution studies (paper Figures 12-13). All genome
//! scoring funnels through the `cocco-engine` evaluation engine: batches
//! run on a worker pool and repeat evaluations hit a shared memoization
//! cache, with results bit-identical at any thread count (see
//! [`SearchContext::evaluate_chunks`]).
//!
//! [`SearchMethod`] is the method registry: one serializable, seedable
//! selector carrying each method's typed configuration, itself a
//! [`Searcher`], so callers (notably the `cocco` facade) stay
//! method-agnostic.
//!
//! Under every method sits a **step-driven state machine**
//! ([`SearchDriver`]): `next_batch` yields a batch of [`EvalCandidate`]s
//! (with per-chunk objective/budget overrides), the harness evaluates it
//! as one engine dispatch, `absorb` advances the method's internal state,
//! and a serde-serializable [`DriverState`] snapshot makes any run
//! checkpoint/resumable mid-run — bit-identically. `Searcher::run` is the
//! thin default loop ([`run_driver`]); on top of the same surface sit the
//! interleaved [`TwoStep`] scheme and the [`Portfolio`] meta-driver.
//!
//! # Examples
//!
//! ```
//! use cocco_search::{CoccoGa, SearchContext, BufferSpace, Objective, Searcher};
//! use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
//!
//! let graph = cocco_graph::models::diamond();
//! let eval = Evaluator::new(&graph, AcceleratorConfig::default());
//! let ctx = SearchContext::new(
//!     &graph,
//!     &eval,
//!     BufferSpace::fixed(BufferConfig::shared(1 << 20)),
//!     Objective::partition_only(CostMetric::Ema),
//!     2_000,
//! );
//! let outcome = CoccoGa::default().with_seed(1).run(&ctx);
//! assert!(outcome.best_cost.is_finite());
//! ```

mod context;
mod dp;
mod driver;
mod exhaustive;
mod ga;
mod genome;
mod greedy;
mod method;
mod objective;
mod outcome;
mod portfolio;
mod sa;
mod twostep;

// Budget and trace primitives live in the engine crate; re-exported here so
// existing `cocco_search::{SampleBudget, Trace, TracePoint}` paths keep
// working.
pub use cocco_engine::EvalMemo;
pub use cocco_engine::{
    Engine, EngineConfig, EngineStats, SampleBudget, SampleReservation, ThreadCount,
};
pub use cocco_engine::{Trace, TracePoint};
pub use cocco_partition::PartitionDelta;
pub use context::{EvalCandidate, EvalHint, SearchContext};
pub use dp::{DepthDp, DpDriver, DpState};
pub use driver::{
    drive_step, run_driver, DriverState, EvalBatch, EvalChunk, SearchDriver, SearchSnapshot, Step,
    CHECKPOINT_VERSION,
};
pub use exhaustive::{Exhaustive, ExhaustiveDriver, ExhaustiveLimits, ExhaustiveState};
pub use ga::{CoccoGa, GaConfig, GaDriver, GaState, MutationRates};
pub use genome::Genome;
pub use greedy::{GreedyDriver, GreedyFusion, GreedyState};
pub use method::SearchMethod;
pub use objective::{BufferSpace, Objective};
pub use outcome::{SearchOutcome, Searcher};
pub use portfolio::{Portfolio, PortfolioDriver, PortfolioPolicy, PortfolioState};
pub use sa::{SaConfig, SaDriver, SaState, SimulatedAnnealing};
pub use twostep::{CapacitySampling, TwoStep, TwoStepDriver, TwoStepState};
