//! Computation-graph IR and DNN model zoo for the Cocco framework.
//!
//! A DNN model is represented as a directed acyclic [`Graph`] whose nodes are
//! layers ([`LayerOp`]) and whose edges carry activation tensors. Following
//! the paper ("Cocco: Hardware-Mapping Co-Exploration towards Memory
//! Capacity-Communication Optimization", ASPLOS'24 §5.1.1):
//!
//! * fully-connected layers are lowered to 1×1 convolutions,
//! * pooling and element-wise layers are analysed as depth-wise convolutions
//!   without weights,
//! * scalar post-processing (activation functions) is hidden in the pipeline
//!   and carries no cost.
//!
//! The crate ships shape-faithful constructors for every workload the paper
//! evaluates: VGG16, ResNet-50/152, GoogleNet, NasNet-A, Transformer, GPT and
//! seeded RandWire graphs (small/regular regimes).
//!
//! # Examples
//!
//! ```
//! use cocco_graph::{GraphBuilder, Kernel, TensorShape};
//!
//! # fn main() -> Result<(), cocco_graph::GraphError> {
//! let mut b = GraphBuilder::new("toy");
//! let input = b.input(TensorShape::new(32, 32, 3));
//! let c1 = b.conv("c1", input, 16, Kernel::square_same(3, 1))?;
//! let c2 = b.conv("c2", c1, 16, Kernel::square_same(3, 1))?;
//! let sum = b.eltwise("add", &[c1, c2])?;
//! let graph = b.finish()?;
//! assert_eq!(graph.len(), 4);
//! assert_eq!(graph.node(sum).out_shape(), TensorShape::new(32, 32, 16));
//! # Ok(())
//! # }
//! ```

mod builder;
mod dot;
mod error;
mod fingerprint;
mod fpcache;
mod graph;
mod layer;
pub mod models;
mod randgraph;
mod shape;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use fingerprint::{mix64, NodeSetFp};
pub use fpcache::{FpCache, FpKey};
pub use graph::{Graph, NodeId, NodeIter};
pub use layer::{EdgeReq, Kernel, LayerOp, Node};
pub use randgraph::{WattsStrogatz, WsEdge};
pub use shape::{Dims2, TensorShape};
