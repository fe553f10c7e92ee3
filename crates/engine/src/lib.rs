//! The parallel, memoized evaluation engine shared by every searcher.
//!
//! Genome evaluation — repair, partition scoring, budget accounting, trace
//! recording — dominates the wall-clock of every search method in this
//! reproduction, and population-based co-exploration is embarrassingly
//! parallel at the batch level. This crate factors that hot path out of the
//! individual searchers into one engine:
//!
//! * [`EnginePool`] — a worker pool in which the caller works its batch
//!   beside a **persistent** set of `threads − 1` helpers (spawned
//!   lazily, channel-fed, joined on drop; [`EngineConfig`]: `auto` or a
//!   fixed count, `1` ⇒ fully serial);
//! * [`EvalCache`] — a sharded, **bounded** memoization cache of plain
//!   whole-partition [`ScoredEval`] roll-ups. Keys are fixed-size
//!   [`EvalKey`] fingerprints folded from 128-bit subgraph content hashes;
//!   the cache is objective-agnostic so one entry serves Formula 1 and
//!   Formula 2 searches alike, growth is bounded by a generation-sweep
//!   eviction policy (`EngineConfig::cache_capacity`), and entries persist
//!   across runs via [`CacheSnapshot`]. Per-subgraph terms are not cached:
//!   each is computed from the subgraph's statistics, which the
//!   evaluator's own stats cache holds;
//! * [`Engine`] — pool + cache + [`EngineStats`], the object a search
//!   context shares across threads. It scores a partition directly
//!   ([`Engine::score_partition`]), a single subgraph
//!   ([`Engine::score_single`]), or a batch candidate as one job in one
//!   [`EvalArena`] slot ([`Engine::with_slot`]: repair into the slot's
//!   repair scratch, then [`Engine::score_slot`] reads the layout and
//!   fingerprints repair left there). Every
//!   successful score, hit or miss, comes with an [`EvalMemo`] — the
//!   coordinates it was scored under, which repair reads to seed the
//!   genome's offspring;
//! * [`SampleBudget`] — the thread-safe evaluation budget drawn on by every
//!   searcher: sliceable for two-step inner runs, and reservable
//!   ([`SampleBudget::reserve`] → [`SampleReservation`]) by a caller that
//!   pre-funds a dispatch — abandoned reservations refund to the slice and
//!   the shared pool on drop, so no samples are stranded;
//! * [`Trace`]/[`TracePoint`] — thread-safe evaluation recording, plus the
//!   `infeasible_errors` counter that keeps silent evaluator failures
//!   visible.
//!
//! # Determinism
//!
//! Parallelism never changes results. Batch evaluation (every driver step
//! runs through `SearchContext::evaluate_chunks` in `cocco-search`) pins the
//! budget-sample indices and the trace-recording order to the *input*
//! order of the batch before any worker runs, and each genome's evaluation
//! is a pure function of the genome itself — so a seeded search is
//! bit-identical at any thread count, and `threads` is purely a wall-clock
//! knob.
//!
//! # Examples
//!
//! ```
//! use cocco_engine::{Engine, EngineConfig};
//! use cocco_partition::Partition;
//! use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, EvalOptions, Evaluator};
//!
//! let g = cocco_graph::models::chain(4);
//! let eval = Evaluator::new(&g, AcceleratorConfig::default());
//! let engine = Engine::new(EngineConfig::auto());
//! let whole = Partition::from_assignment(vec![0; g.len()]);
//! let buffer = BufferConfig::shared(1 << 20);
//! let (first, _) = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
//! let (second, _) = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
//! assert_eq!(first.cost(CostMetric::Ema, None), second.cost(CostMetric::Ema, None));
//! assert_eq!(engine.stats().cache_hits, 1);
//! ```

mod arena;
mod budget;
mod cache;
mod config;
mod engine;
mod pool;
mod trace;

pub use arena::EvalArena;
pub use budget::{SampleBudget, SampleReservation};
pub use cache::{eval_key, CacheSnapshot, EvalCache, EvalKey, SnapshotOrigin, SNAPSHOT_VERSION};
pub use config::{ChunkSize, EngineConfig, ThreadCount};
pub use engine::{
    DispatchPanic, Engine, EngineStats, EvalMemo, PartitionProbe, PreparedEval, ScoredEval,
};
pub use pool::EnginePool;
pub use trace::{Trace, TracePoint};
