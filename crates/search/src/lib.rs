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
//! Implemented methods, each a [`SearchMethod`] variant carrying its
//! typed configuration:
//!
//! | method | driver | paper | type |
//! |---|---|---|---|
//! | [`SearchMethod::Ga`] | [`GaDriver`] | §4.3-4.4 | genetic co-exploration (the contribution) |
//! | [`SearchMethod::Sa`] | [`SaDriver`] | §4.2.4 | co-exploration baseline |
//! | [`SearchMethod::Greedy`] | [`GreedyDriver`] | §4.2.2 | Halide-style merge baseline |
//! | [`SearchMethod::DepthDp`] | [`DpDriver`] | §4.2.3 | Irregular-NN depth-ordered DP baseline |
//! | [`SearchMethod::Exhaustive`] | [`ExhaustiveDriver`] | §4.2.1 | downset state-compression enumeration |
//! | [`SearchMethod::TwoStep`] | [`TwoStepDriver`] | §5.1.3 | RS+GA / GS+GA capacity-then-partition |
//!
//! Every method draws evaluations from a shared [`SampleBudget`] so
//! "samples" are comparable across methods, and records a [`Trace`] for the
//! convergence and distribution studies (paper Figures 12-13). All genome
//! scoring funnels through the `cocco-engine` evaluation engine: batches
//! run on a worker pool and repeat evaluations hit a shared memoization
//! cache, with results bit-identical at any thread count (see
//! [`SearchContext::evaluate_chunks`]).
//!
//! Each method is a **step-driven state machine** ([`SearchDriver`]):
//! `next_batch` yields a batch of [`EvalCandidate`]s (with per-chunk
//! objective/budget overrides), the harness evaluates it as one engine
//! dispatch, `absorb` advances the method's internal state, and a
//! serde-serializable [`DriverState`] snapshot makes any run
//! checkpoint/resumable mid-run — bit-identically.
//! [`SearchMethod::driver`] builds a method's driver and
//! [`SearchMethod::run`] steps it to completion ([`run_driver`]), so
//! callers (notably the `cocco` facade) stay method-agnostic.
//!
//! # Examples
//!
//! ```
//! use cocco_search::{BufferSpace, GaConfig, Objective, SearchContext, SearchMethod};
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
//! let ga = SearchMethod::Ga(GaConfig {
//!     population: 50,
//!     ..GaConfig::default()
//! });
//! let outcome = ga.with_seed(1).run(&ctx);
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
pub use exhaustive::{ExhaustiveDriver, ExhaustiveLimits, ExhaustiveState};
pub use ga::{GaConfig, GaDriver, GaState, MutationRates};
pub use genome::Genome;
pub use greedy::{GreedyDriver, GreedyState};
pub use method::SearchMethod;
pub use objective::{BufferSpace, Objective};
pub use outcome::SearchOutcome;
pub use sa::{SaConfig, SaDriver, SaState};
pub use twostep::{CapacitySampling, TwoStep, TwoStepDriver, TwoStepState};
