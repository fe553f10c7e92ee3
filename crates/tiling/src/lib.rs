//! The consumption-centric subgraph execution flow of the Cocco paper (§3.1).
//!
//! Executing a multi-layer subgraph as a sequence of *elementary operations*
//! requires knowing, for every node `u`:
//!
//! * the update offset `Δ(u)` — how many fresh output rows/columns each
//!   memory update contributes,
//! * the buffered tile size `x(u)` — how many rows/columns must stay
//!   resident so every consumer's sliding window is satisfied, and
//! * `upd_num(u)` — how many memory updates of `u` one elementary operation
//!   performs (the unique co-prime solution of
//!   `upd_num(v)·Δ(v)·s(v) = upd_num(u)·Δ(u)` along every edge).
//!
//! [`derive_scheme`] computes all three (independently for the height and
//! width dimensions) in reverse topological order:
//!
//! * stage 1 — a [`Mapper`] picks the tiles of the subgraph's *output* nodes;
//! * stage 2 — `Δ(u) = lcm_{v∈ξ(u)}{Δ(v)·s(v)}` and
//!   `x(u) = max_v f_v(Δ(u)/s(v))` with `f_v(t) = F(v) + (t−1)·s(v)`;
//! * stage 3 — `upd_num` via exact rational propagation.
//!
//! # Who needs stage 3
//!
//! Δ, x and the flags ([`NodeTiling`]) size the buffer; only `upd_num`
//! schedules elementary operations. So stage 3 is needed by whoever
//! replays operations: the [`schedule`] checker, buffer snapshots and the
//! paper's Figure 5 table call [`derive_scheme`]. The cost model reads
//! only [`NodeTiling`]s, so subgraph statistics grow a [`TilingGrowth`]
//! (of which [`derive_tiling`] is one whole-set run): stages 1–2, with
//! the same result and the same errors as [`derive_scheme`] minus
//! `upd_num`. Stage 3 can only fail, and
//! [`TilingGrowth::check_rates`] runs its propagation only where it cannot
//! prove that propagation succeeds (with a [`RateProof`] made once per
//! graph).
//!
//! # Producer-side push order
//!
//! A node's Δ and x depend only on its member consumers. A
//! [`TilingGrowth`] therefore takes nodes *consumers first*: a node joins
//! only after every member that consumes it. Its tiling is then final on
//! arrival, and only boundary producers are re-tiled, when one of their
//! consumers joins. Descending id order satisfies this, since ids are
//! topological. So does the descending depth order in which the
//! depth-ordered DP (paper §4.2.3) grows each run: every producer is
//! strictly shallower than its consumers, so each layer the run adds is
//! consumed by no member yet to come, and the DP extends one run's tiling
//! to the next by one layer instead of re-deriving it.
//!
//! The crate also implements the *production-centric* forward derivation of
//! paper Figure 4(a) ([`production`]) so the two schemes can be compared.
//!
//! # Examples
//!
//! Reproducing the paper's Figure 5 example is covered in
//! [`ExecutionScheme`]'s documentation and the crate tests; a minimal run:
//!
//! ```
//! use cocco_tiling::{derive_scheme, Mapper};
//!
//! let graph = cocco_graph::models::diamond();
//! let members: Vec<_> = graph.node_ids().collect();
//! let scheme = derive_scheme(&graph, &members, &Mapper::default()).unwrap();
//! assert_eq!(scheme.len(), graph.len());
//! ```

mod error;
mod flow;
mod growth;
mod mapper;
pub mod production;
mod ratio;
pub mod schedule;
mod scheme;

pub use error::TilingError;
pub use flow::{derive_scheme, derive_tiling, RateProof};
pub use growth::TilingGrowth;
pub use mapper::{Mapper, MapperPolicy};
pub use scheme::{ExecutionScheme, NodeScheme, NodeTiling, SubgraphTiling};
