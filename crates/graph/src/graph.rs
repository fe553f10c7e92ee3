//! The computation graph: an immutable DAG of layers in topological order.

use crate::error::GraphError;
use crate::layer::{EdgeReq, Node};
use crate::shape::TensorShape;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node (layer) in a [`Graph`].
///
/// Node ids double as topological positions: the [`GraphBuilder`] only lets a
/// node consume already-created nodes, so `a.index() < b.index()` whenever
/// there is a path from `a` to `b`.
///
/// [`GraphBuilder`]: crate::GraphBuilder
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn from_index(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The position of this node in the graph's topological order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// An immutable DNN computation graph `G = (V, E)`.
///
/// Nodes are layers; an edge `(u, v)` means the output of layer `u` is an
/// input of layer `v` (paper §4.1.1). Nodes are stored in topological order,
/// and consumer lists, input shapes, weight and MAC counts are precomputed so
/// that the cost evaluator can run at design-space-exploration rates.
///
/// Construct graphs with [`GraphBuilder`](crate::GraphBuilder) or a model-zoo
/// constructor from [`models`](crate::models).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Vec<Node>,
    /// Consumer lists as one compressed sparse row: node `i`'s consumers
    /// are `consumer_list[consumer_offsets[i]..consumer_offsets[i + 1]]`,
    /// in ascending order.
    consumer_offsets: Vec<u32>,
    consumer_list: Vec<NodeId>,
    weight_elems: Vec<u64>,
    macs: Vec<u64>,
    edge_count: usize,
}

impl Graph {
    pub(crate) fn from_nodes(name: String, nodes: Vec<Node>) -> Result<Self, GraphError> {
        if nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        // Counting sort of the edges by producer: count, prefix-sum, then
        // scatter consumers in node order, so every row ascends.
        let mut consumer_offsets = vec![0u32; nodes.len() + 2];
        for (idx, node) in nodes.iter().enumerate() {
            for &input in &node.inputs {
                if input.index() >= idx {
                    return Err(GraphError::NotTopological {
                        node: node.name.clone(),
                    });
                }
                consumer_offsets[input.index() + 2] += 1;
            }
        }
        for i in 2..consumer_offsets.len() {
            consumer_offsets[i] += consumer_offsets[i - 1];
        }
        let edge_count = consumer_offsets[nodes.len() + 1] as usize;
        let mut consumer_list = vec![NodeId::from_index(0); edge_count];
        for (idx, node) in nodes.iter().enumerate() {
            for &input in &node.inputs {
                let cursor = &mut consumer_offsets[input.index() + 1];
                consumer_list[*cursor as usize] = NodeId::from_index(idx);
                *cursor += 1;
            }
        }
        consumer_offsets.truncate(nodes.len() + 1);
        if !nodes.iter().any(|n| n.op.is_input()) {
            return Err(GraphError::NoInput);
        }
        let weight_elems = nodes
            .iter()
            .map(|n| {
                let shapes = in_shapes_of(&nodes, n);
                n.weight_elements(&shapes)
            })
            .collect();
        let macs = nodes
            .iter()
            .map(|n| {
                let shapes = in_shapes_of(&nodes, n);
                n.macs(&shapes)
            })
            .collect();
        Ok(Self {
            name,
            nodes,
            consumer_offsets,
            consumer_list,
            weight_elems,
            macs,
            edge_count,
        })
    }

    /// The model name (e.g. `"resnet50"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes (layers).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the graph has no nodes (never true for graphs built
    /// through [`GraphBuilder`](crate::GraphBuilder)).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this graph.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Iterates over `(id, node)` pairs in topological order.
    pub fn iter(&self) -> NodeIter<'_> {
        NodeIter {
            graph: self,
            next: 0,
        }
    }

    /// All node ids in topological order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Consumers of `id` (nodes that read its output tensor).
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.consumer_list
            [self.consumer_offsets[i] as usize..self.consumer_offsets[i + 1] as usize]
    }

    /// Producers of `id` (its input nodes, in argument order).
    pub fn producers(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].inputs
    }

    /// Ids of the model-input placeholder nodes.
    pub fn input_ids(&self) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| n.op.is_input())
            .map(|(id, _)| id)
            .collect()
    }

    /// Ids of model outputs (nodes with no consumers).
    pub fn output_ids(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|id| self.consumers(*id).is_empty())
            .collect()
    }

    /// Shapes of the tensors arriving at `id`, in argument order.
    pub fn in_shapes(&self, id: NodeId) -> Vec<TensorShape> {
        in_shapes_of(&self.nodes, &self.nodes[id.index()])
    }

    /// Weight element count of node `id` (0 for weight-free layers).
    pub fn weight_elements(&self, id: NodeId) -> u64 {
        self.weight_elems[id.index()]
    }

    /// Output element count of node `id`.
    pub fn out_elements(&self, id: NodeId) -> u64 {
        self.nodes[id.index()].out_shape.elements()
    }

    /// MAC (compute-equivalent) count of node `id`.
    pub fn macs(&self, id: NodeId) -> u64 {
        self.macs[id.index()]
    }

    /// Total weight elements over all layers.
    pub fn total_weight_elements(&self) -> u64 {
        self.weight_elems.iter().sum()
    }

    /// Total MACs over all layers (one inference pass).
    pub fn total_macs(&self) -> u64 {
        self.macs.iter().sum()
    }

    /// How consumer `consumer` reads the tensor produced by `producer`.
    ///
    /// When a producer feeds the same consumer through several arguments the
    /// strictest requirement ([`EdgeReq::Full`] over sliding) is returned.
    ///
    /// # Panics
    ///
    /// Panics if there is no edge `producer -> consumer`.
    pub fn edge_req(&self, producer: NodeId, consumer: NodeId) -> EdgeReq {
        let node = self.node(consumer);
        let mut best: Option<EdgeReq> = None;
        for (idx, &input) in node.inputs.iter().enumerate() {
            if input == producer {
                let req = node.edge_req(idx);
                best = Some(match (best, req) {
                    (Some(EdgeReq::Full), _) | (_, EdgeReq::Full) => EdgeReq::Full,
                    (_, sliding) => sliding,
                });
            }
        }
        best.unwrap_or_else(|| panic!("no edge {producer} -> {consumer}"))
    }

    /// Depth (longest path from any input, in edges) of every node; used by
    /// the Irregular-NN DP baseline and the fixed-L fusion experiment.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.len()];
        for (id, node) in self.iter() {
            let d = node
                .inputs
                .iter()
                .map(|p| depth[p.index()] + 1)
                .max()
                .unwrap_or(0);
            depth[id.index()] = d;
        }
        depth
    }

    /// Checks that `ids` (any order) forms a weakly-connected subgraph.
    pub fn is_connected_subset(&self, ids: &[NodeId]) -> bool {
        if ids.is_empty() {
            return false;
        }
        if ids.len() == 1 {
            return true;
        }
        let member: std::collections::HashSet<NodeId> = ids.iter().copied().collect();
        let mut seen = std::collections::HashSet::with_capacity(ids.len());
        let mut stack = vec![ids[0]];
        seen.insert(ids[0]);
        while let Some(id) = stack.pop() {
            for &n in self.producers(id).iter().chain(self.consumers(id).iter()) {
                if member.contains(&n) && seen.insert(n) {
                    stack.push(n);
                }
            }
        }
        seen.len() == ids.len()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} nodes, {} edges, {:.1} MMACs, {:.1} K weight elems)",
            self.name,
            self.len(),
            self.edge_count(),
            self.total_macs() as f64 / 1e6,
            self.total_weight_elements() as f64 / 1e3
        )
    }
}

fn in_shapes_of(nodes: &[Node], node: &Node) -> Vec<TensorShape> {
    node.inputs
        .iter()
        .map(|p| nodes[p.index()].out_shape)
        .collect()
}

/// Iterator over `(NodeId, &Node)` in topological order; created by
/// [`Graph::iter`].
#[derive(Debug)]
pub struct NodeIter<'a> {
    graph: &'a Graph,
    next: usize,
}

impl<'a> Iterator for NodeIter<'a> {
    type Item = (NodeId, &'a Node);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next < self.graph.nodes.len() {
            let id = NodeId::from_index(self.next);
            self.next += 1;
            Some((id, self.graph.node(id)))
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.graph.nodes.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for NodeIter<'_> {}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Kernel, TensorShape};

    fn diamond() -> crate::Graph {
        let mut b = GraphBuilder::new("diamond");
        let i = b.input(TensorShape::new(16, 16, 8));
        let a = b.conv("a", i, 8, Kernel::square_same(3, 1)).unwrap();
        let l = b.conv("l", a, 8, Kernel::square_same(3, 1)).unwrap();
        let r = b.conv("r", a, 8, Kernel::square_same(1, 1)).unwrap();
        let _s = b.eltwise("s", &[l, r]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn topological_invariant() {
        let g = diamond();
        for (id, node) in g.iter() {
            for p in node.inputs() {
                assert!(p.index() < id.index());
            }
        }
    }

    #[test]
    fn consumers_are_inverse_of_producers() {
        let g = diamond();
        for id in g.node_ids() {
            for &c in g.consumers(id) {
                assert!(g.producers(c).contains(&id));
            }
            for &p in g.producers(id) {
                assert!(g.consumers(p).contains(&id));
            }
        }
    }

    #[test]
    fn consumer_rows_match_the_per_node_lists_on_every_model() {
        // The nested lists the flat rows replaced: one push per input
        // argument, in node order (so a repeated input repeats).
        for (name, build) in crate::models::registry() {
            let g = build();
            let mut nested = vec![Vec::new(); g.len()];
            for (id, node) in g.iter() {
                for p in node.inputs() {
                    nested[p.index()].push(id);
                }
            }
            for id in g.node_ids() {
                assert_eq!(g.consumers(id), nested[id.index()], "{name}: {id}");
            }
            let edges: usize = nested.iter().map(Vec::len).sum();
            assert_eq!(g.edge_count(), edges, "{name}");
        }
    }

    #[test]
    fn inputs_and_outputs() {
        let g = diamond();
        assert_eq!(g.input_ids().len(), 1);
        let outs = g.output_ids();
        assert_eq!(outs.len(), 1);
        assert_eq!(g.node(outs[0]).name(), "s");
    }

    #[test]
    fn depths_follow_longest_path() {
        let g = diamond();
        let d = g.depths();
        assert_eq!(d, vec![0, 1, 2, 2, 3]);
    }

    #[test]
    fn connected_subset_checks() {
        let g = diamond();
        let ids = g.node_ids().collect::<Vec<_>>();
        assert!(g.is_connected_subset(&ids));
        // l and r are not directly connected...
        assert!(!g.is_connected_subset(&[ids[2], ids[3]]));
        // ...but together with their shared producer they are.
        assert!(g.is_connected_subset(&[ids[1], ids[2], ids[3]]));
        assert!(!g.is_connected_subset(&[]));
    }

    #[test]
    fn totals_accumulate() {
        let g = diamond();
        let per_node: u64 = g.node_ids().map(|id| g.macs(id)).sum();
        assert_eq!(per_node, g.total_macs());
        assert!(g.total_weight_elements() > 0);
    }

    #[test]
    fn display_mentions_name() {
        let g = diamond();
        assert!(g.to_string().contains("diamond"));
    }
}
