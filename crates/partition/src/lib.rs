//! Graph partitions for subgraph-level execution (paper §4.1.1).
//!
//! A partition `P : V → ℕ` assigns every layer to a subgraph; layer `v` is
//! computed in the `P(v)`-th subgraph. A *valid* partition satisfies:
//!
//! * **precedence** — for every edge `(u, v)`, `P(u) ≤ P(v)`; equivalently,
//!   the quotient DAG formed by contracting each subgraph is acyclic, so an
//!   execution order exists;
//! * **connectivity** — every subgraph is weakly connected in `G`
//!   (otherwise the grouping is meaningless).
//!
//! [`Partition`] stores the assignment, [`Quotient`] exposes the contracted
//! DAG (with SCC computation for repair), and [`repair`] restores validity
//! after arbitrary mutations: split subgraphs into connected components,
//! merge quotient SCCs (which preserves connectivity), then split any
//! subgraph that exceeds the buffer via the paper's in-situ
//! `split-subgraph` (§4.4.4).

mod delta;
mod error;
mod layout;
mod partition;
mod quotient;
mod repair;

pub use delta::PartitionDelta;
pub use error::PartitionError;
pub use layout::{LayoutArena, PartitionLayout};
pub use partition::Partition;
pub use quotient::Quotient;
pub use repair::{repair, repair_seeded, repair_with_delta, ParentSeed, RepairScratch};
