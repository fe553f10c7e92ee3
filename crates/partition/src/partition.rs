//! The partition type.

use crate::error::PartitionError;
use crate::quotient::{compact_ids_into, Quotient};
use cocco_graph::{Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A partition `P : V → ℕ` of a computation graph into ordered subgraphs.
///
/// Subgraph ids are dense after [`canonicalize`](Partition::canonicalize):
/// id `i` is the `i`-th subgraph in execution order.
///
/// # Examples
///
/// ```
/// use cocco_partition::Partition;
///
/// let g = cocco_graph::models::chain(4); // input + 4 convs
/// let p = Partition::singletons(g.len());
/// assert_eq!(p.num_subgraphs(), 5);
/// assert!(p.validate(&g).is_ok());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Partition {
    assignment: Vec<u32>,
}

impl Partition {
    /// One node per subgraph, in topological order (layer-level execution).
    pub fn singletons(n: usize) -> Self {
        Self {
            assignment: (0..n as u32).collect(),
        }
    }

    /// All nodes in a single subgraph.
    pub fn whole(n: usize) -> Self {
        Self {
            assignment: vec![0; n],
        }
    }

    /// Builds a partition from an explicit assignment (subgraph id per
    /// node, indexed by [`NodeId`]); ids need not be dense.
    pub fn from_assignment(assignment: Vec<u32>) -> Self {
        Self { assignment }
    }

    /// Consumes the partition, returning its assignment buffer.
    pub(crate) fn into_assignment(self) -> Vec<u32> {
        self.assignment
    }

    /// Groups layers by `⌊depth_rank / l⌋` over the topological order — the
    /// fixed-`L` fusion of paper Figure 3 (run [`repair`](crate::repair)
    /// afterwards to restore connectivity on branchy graphs).
    ///
    /// # Panics
    ///
    /// Panics if `l == 0`.
    pub fn depth_groups(graph: &Graph, l: usize) -> Self {
        assert!(l > 0, "group size must be nonzero");
        // Order nodes by (depth, id) and chop into runs of l.
        let depths = graph.depths();
        let mut order: Vec<usize> = (0..graph.len()).collect();
        order.sort_by_key(|&i| (depths[i], i));
        let mut assignment = vec![0u32; graph.len()];
        for (rank, &node) in order.iter().enumerate() {
            assignment[node] = (rank / l) as u32;
        }
        Self { assignment }
    }

    /// Groups layers into *connected* subgraphs of up to `l` nodes by
    /// growing each group from the earliest unassigned layer over
    /// ready neighbours (producers already covered) — the "fuse L layers"
    /// scheme of paper Figure 3 for arbitrary topologies. The result is
    /// always valid: groups are connected and predecessor-closed with
    /// respect to earlier groups.
    ///
    /// # Panics
    ///
    /// Panics if `l == 0`.
    pub fn connected_groups(graph: &Graph, l: usize) -> Self {
        assert!(l > 0, "group size must be nonzero");
        let n = graph.len();
        let mut assignment = vec![u32::MAX; n];
        let mut group = 0u32;
        for seed in 0..n {
            if assignment[seed] != u32::MAX {
                continue;
            }
            let mut members = vec![seed];
            assignment[seed] = group;
            while members.len() < l {
                // Candidates: unassigned neighbours whose producers are all
                // covered by earlier groups or the current one.
                let mut next: Option<usize> = None;
                for &m in &members {
                    let id = NodeId::from_index(m);
                    for &nb in graph.consumers(id).iter().chain(graph.producers(id)) {
                        let i = nb.index();
                        if assignment[i] != u32::MAX {
                            continue;
                        }
                        let ready = graph
                            .producers(nb)
                            .iter()
                            .all(|p| assignment[p.index()] != u32::MAX);
                        if ready && next.is_none_or(|best| i < best) {
                            next = Some(i);
                        }
                    }
                }
                match next {
                    Some(i) => {
                        assignment[i] = group;
                        members.push(i);
                    }
                    None => break,
                }
            }
            group += 1;
        }
        Self { assignment }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// `true` when the partition covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// The subgraph id of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn subgraph_of(&self, node: NodeId) -> u32 {
        self.assignment[node.index()]
    }

    /// Reassigns `node` to subgraph `subgraph` (validity not enforced; run
    /// [`repair`](crate::repair) afterwards).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn assign(&mut self, node: NodeId, subgraph: u32) {
        self.assignment[node.index()] = subgraph;
    }

    /// The raw assignment, indexed by node.
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Number of distinct subgraphs.
    pub fn num_subgraphs(&self) -> usize {
        let mut ids: Vec<u32> = self.assignment.clone();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// A fresh subgraph id not currently in use.
    pub fn fresh_id(&self) -> u32 {
        self.assignment.iter().copied().max().map_or(0, |m| m + 1)
    }

    /// Member lists per subgraph, ordered by subgraph id (dense ids assumed
    /// — call [`canonicalize`](Partition::canonicalize) first). Members are
    /// ascending, i.e. topologically ordered.
    pub fn subgraphs(&self) -> Vec<Vec<NodeId>> {
        let mut max = 0u32;
        for &a in &self.assignment {
            max = max.max(a);
        }
        let mut out: Vec<Vec<NodeId>> = vec![Vec::new(); max as usize + 1];
        for (i, &a) in self.assignment.iter().enumerate() {
            out[a as usize].push(NodeId::from_index(i));
        }
        out.retain(|v| !v.is_empty());
        out
    }

    /// Renumbers subgraph ids densely in execution order (quotient
    /// topological order, ties broken by smallest member), returning `false`
    /// if the quotient is cyclic (ids are then left compacted but
    /// order-free).
    pub fn canonicalize(&mut self, graph: &Graph) -> bool {
        let quotient = Quotient::build(graph, self);
        match quotient.topo_order() {
            Some(order) => {
                // order[i] = old id of the i-th subgraph to execute.
                let mut remap = vec![u32::MAX; quotient.num_subgraphs()];
                for (new_id, &old) in order.iter().enumerate() {
                    remap[old as usize] = new_id as u32;
                }
                for a in &mut self.assignment {
                    *a = remap[quotient.compact_id(*a) as usize];
                }
                true
            }
            None => {
                for a in &mut self.assignment {
                    *a = quotient.compact_id(*a);
                }
                false
            }
        }
    }

    /// Checks validity: connectivity of every subgraph and acyclicity of
    /// the quotient.
    ///
    /// # Errors
    ///
    /// Returns the first violated condition.
    pub fn validate(&self, graph: &Graph) -> Result<(), PartitionError> {
        if self.assignment.is_empty() {
            return Err(PartitionError::Empty);
        }
        if self.assignment.len() != graph.len() {
            return Err(PartitionError::WrongLength {
                got: self.assignment.len(),
                expected: graph.len(),
            });
        }
        // Members grouped by compacted id: an assignment read from a file
        // may carry any label, and none may size an allocation.
        let mut compact = self.assignment.clone();
        let (mut labels, mut table) = (Vec::new(), Vec::new());
        compact_ids_into(&mut compact, &mut labels, &mut table);
        let mut subgraphs: Vec<Vec<NodeId>> = vec![Vec::new(); labels.len()];
        for (i, &c) in compact.iter().enumerate() {
            subgraphs[c as usize].push(NodeId::from_index(i));
        }
        for (members, &subgraph) in subgraphs.iter().zip(&labels) {
            if !graph.is_connected_subset(members) {
                return Err(PartitionError::Disconnected { subgraph });
            }
        }
        let quotient = Quotient::build(graph, self);
        if quotient.topo_order().is_none() {
            return Err(PartitionError::CyclicQuotient);
        }
        Ok(())
    }
}

impl fmt::Display for Partition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "partition of {} nodes into {} subgraphs",
            self.len(),
            self.num_subgraphs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_and_whole_are_valid() {
        let g = cocco_graph::models::diamond();
        assert!(Partition::singletons(g.len()).validate(&g).is_ok());
        assert!(Partition::whole(g.len()).validate(&g).is_ok());
    }

    #[test]
    fn precedence_violation_detected() {
        // chain: input -> c0 -> c1. Putting input and c1 together without
        // c0 breaks connectivity; putting c0 alone after them breaks order.
        let g = cocco_graph::models::chain(2);
        let p = Partition::from_assignment(vec![0, 1, 0]);
        assert!(p.validate(&g).is_err());
    }

    #[test]
    fn disconnected_subgraph_detected() {
        let g = cocco_graph::models::diamond(); // input, a, l, r, add
                                                // l and r share no edge: {l, r} alone is disconnected.
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        assert_eq!(
            p.validate(&g),
            Err(PartitionError::Disconnected { subgraph: 1 })
        );
    }

    #[test]
    fn huge_labels_validate_without_a_label_sized_table() {
        let g = cocco_graph::models::diamond(); // input, a, l, r, add
        let big = 4_000_000_000;
        let p = Partition::from_assignment(vec![big, big, 1, 2, 3]);
        assert_eq!(p.validate(&g), Ok(()));
        let p = Partition::from_assignment(vec![0, 0, big, big, 2]);
        assert_eq!(
            p.validate(&g),
            Err(PartitionError::Disconnected { subgraph: big })
        );
    }

    #[test]
    fn cyclic_quotient_detected() {
        // diamond with l in sg0 and r in sg1, a in sg0, add in sg0:
        // edges sg0->sg1 (a->r) and sg1->sg0 (r->add) form a cycle.
        let g = cocco_graph::models::diamond();
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        assert_eq!(p.validate(&g), Err(PartitionError::CyclicQuotient));
    }

    #[test]
    fn canonicalize_orders_by_execution() {
        let g = cocco_graph::models::chain(3); // 4 nodes
        let mut p = Partition::from_assignment(vec![7, 7, 3, 3]);
        assert!(p.canonicalize(&g));
        assert_eq!(p.assignment(), &[0, 0, 1, 1]);
        assert!(p.validate(&g).is_ok());
    }

    #[test]
    fn canonicalize_reports_cycles() {
        let g = cocco_graph::models::diamond();
        let mut p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        assert!(!p.canonicalize(&g));
    }

    #[test]
    fn subgraph_members_are_topological() {
        let g = cocco_graph::models::googlenet();
        let p = Partition::depth_groups(&g, 5);
        for members in p.subgraphs() {
            assert!(members.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn depth_groups_have_expected_sizes() {
        let g = cocco_graph::models::chain(9); // 10 nodes
        let p = Partition::depth_groups(&g, 3);
        let sizes: Vec<usize> = p.subgraphs().iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn fresh_id_is_unused() {
        let p = Partition::from_assignment(vec![0, 5, 2]);
        assert_eq!(p.fresh_id(), 6);
    }

    #[test]
    fn connected_groups_are_valid_and_sized() {
        for model in ["googlenet", "randwire-a", "resnet50"] {
            let g = crate::partition::tests::model(model);
            for l in [1usize, 3, 5] {
                let p = Partition::connected_groups(&g, l);
                assert!(p.validate(&g).is_ok(), "{model} L={l}");
                let sizes: Vec<usize> = p.subgraphs().iter().map(Vec::len).collect();
                assert!(sizes.iter().all(|&s| s <= l), "{model} L={l}: {sizes:?}");
                // Fusion actually happens (branch joins cap group growth,
                // so the average sits below l but well above singletons).
                if l > 1 {
                    let avg = g.len() as f64 / sizes.len() as f64;
                    assert!(avg > 1.8, "{model} L={l}: avg {avg}");
                }
            }
        }
    }

    fn model(name: &str) -> cocco_graph::Graph {
        cocco_graph::models::by_name(name).unwrap()
    }
}
