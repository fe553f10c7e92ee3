//! Convenience re-exports for typical Cocco usage.
//!
//! # Examples
//!
//! ```
//! use cocco::prelude::*;
//!
//! let graph = cocco::graph::models::chain(2);
//! let evaluator = Evaluator::new(&graph, AcceleratorConfig::default());
//! assert_eq!(evaluator.config().peak_macs_per_cycle(), 1024);
//! ```

pub use crate::error::{CoccoError, Error, SalvagedBest};
pub use crate::framework::{Cocco, Exploration};
pub use cocco_engine::{
    CacheSnapshot, ChunkSize, Engine, EngineConfig, EngineStats, EvalMemo, SampleBudget,
    SampleReservation, ScoredEval, ThreadCount,
};
pub use cocco_faults::{FaultPlan, FaultRates, FaultSite, HealthReport};
pub use cocco_graph::{
    Dims2, Graph, GraphBuilder, Kernel, LayerOp, NodeId, NodeSetFp, TensorShape,
};
pub use cocco_partition::{repair, repair_with_delta, Partition, PartitionDelta, Quotient};
pub use cocco_search::{
    run_driver, BufferSpace, CapacitySampling, DepthDp, DriverState, EvalBatch, EvalChunk,
    ExhaustiveLimits, GaConfig, Genome, Objective, SaConfig, SearchContext, SearchDriver,
    SearchMethod, SearchOutcome, SearchSnapshot, Step, Trace, TracePoint, TwoStep,
};
pub use cocco_sim::{
    AcceleratorConfig, BufferConfig, CapacityRange, CostMetric, EvalOptions, Evaluator,
    PartitionReport,
};
pub use cocco_telemetry::{MetricsSnapshot, Phase, PhaseSnapshot, Telemetry};
pub use cocco_tiling::{derive_scheme, ExecutionScheme, Mapper, MapperPolicy};
