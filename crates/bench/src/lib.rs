//! Experiment harness regenerating every table and figure of the Cocco
//! paper's evaluation (§5).
//!
//! Each `benches/` target of this crate reproduces one artifact:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig2_survey` | Fig. 2 — industrial NPU survey |
//! | `fig3_fusion` | Fig. 3 — EMA/BW vs. fused-subgraph size |
//! | `fig5_scheme` | Fig. 5/6 — execution-scheme worked example |
//! | `fig11_partition` | Fig. 11 — partition quality vs baselines |
//! | `table1_separate` | Table 1 — co-exploration, separate buffers |
//! | `table2_shared` | Table 2 — co-exploration, shared buffer |
//! | `fig12_convergence` | Fig. 12 — convergence + sample efficiency |
//! | `fig13_distribution` | Fig. 13 — sample-distribution drift |
//! | `fig14_alpha` | Fig. 14 — α sensitivity |
//! | `table3_multicore` | Table 3 — cores × batch |
//!
//! The `micro` binary (`src/bin/micro.rs`) times the hot paths and
//! asserts nothing; the work pins and engine checks it once held are
//! tests under `tests/tests/`.
//!
//! Budgets are scaled down by default so `cargo bench` finishes quickly;
//! set `COCCO_FULL=1` for paper-scale budgets (400 k partition samples,
//! 50 k co-exploration samples). Every run prints the same rows/series the
//! paper reports and appends CSV files under `target/cocco-results/`.

pub mod harness;
pub mod methods;
pub mod survey;

pub use harness::{Scale, Table};
