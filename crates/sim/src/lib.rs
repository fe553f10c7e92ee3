//! SIMBA-like NPU cost model for the Cocco framework (paper §5.1.2).
//!
//! The accelerator is one NPU core with a 4×4 PE array of 8×8 MAC units at
//! 1 GHz (≈2 TOPS), a global (activation) buffer and a weight buffer —
//! either separate or shared — and a 16 GB/s DRAM link. Subgraphs execute
//! one at a time under the consumption-centric scheme; weights of the next
//! subgraph are prefetched during the current computation. Multi-core
//! configurations share subgraph weights across cores over a crossbar
//! (Tangram-BSD / NN-Baton style rotation), and batches reuse resident
//! weights across samples.
//!
//! The central type is [`Evaluator`]: it turns an ordered partition (a list
//! of member sets) into a [`PartitionReport`] with external memory access
//! (EMA), energy, latency and bandwidth figures, caching per-subgraph
//! statistics so design-space exploration can evaluate 10⁵+ candidate
//! partitions per second.
//!
//! # Examples
//!
//! ```
//! use cocco_sim::{AcceleratorConfig, BufferConfig, Evaluator};
//!
//! let graph = cocco_graph::models::diamond();
//! let eval = Evaluator::new(&graph, AcceleratorConfig::default());
//! // One subgraph containing the whole model:
//! let subgraphs = vec![graph.node_ids().collect::<Vec<_>>()];
//! let report = eval
//!     .eval_partition(&subgraphs, &BufferConfig::shared(1 << 20), Default::default())
//!     .unwrap();
//! assert!(report.ema_bytes > 0);
//! ```

mod config;
mod cost;
mod energy;
mod error;
mod evaluator;
mod report;

pub use config::{AcceleratorConfig, BufferConfig, CapacityRange, EvalOptions};
pub use cost::{CostMetric, SubgraphStats};
pub use energy::EnergyModel;
pub use error::SimError;
pub use evaluator::{Evaluator, StatsGrowth};
pub use report::{PartitionReport, SubgraphReport};
