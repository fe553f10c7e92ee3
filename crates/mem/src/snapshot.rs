//! Replays elementary operations to produce the memory snapshots of paper
//! Figure 6.
//!
//! After a node's `t`-th update its region holds the output rows
//! `[(t−1)·Δ : (t−1)·Δ + x − 1]` (clamped to the tensor), and each
//! elementary operation performs `upd_num` updates per node. Replaying the
//! schedule therefore reproduces the `[m:n]` ranges the paper draws.

use cocco_graph::{Graph, NodeId};
use cocco_tiling::ExecutionScheme;
use serde::{Deserialize, Serialize};

/// The buffer contents of one node after one of its updates.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateEvent {
    /// The node that updated.
    pub node: NodeId,
    /// 1-based global update counter of this node.
    pub update: u32,
    /// First resident output row (inclusive).
    pub from: u32,
    /// Last resident output row (inclusive).
    pub to: u32,
}

impl UpdateEvent {
    /// Number of resident rows.
    pub fn rows(&self) -> u32 {
        self.to - self.from + 1
    }
}

/// All updates performed during one elementary operation, in node order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpSnapshot {
    /// 1-based elementary-operation index.
    pub op: u32,
    /// The updates of this operation (each node appears `upd_num.h` times).
    pub updates: Vec<UpdateEvent>,
}

/// Replays the first `ops` elementary operations of `scheme` along the
/// height dimension and returns one snapshot per operation.
///
/// # Examples
///
/// ```
/// use cocco_mem::snapshot::replay;
/// use cocco_tiling::{derive_scheme, Mapper, MapperPolicy};
///
/// let g = cocco_graph::models::chain(2);
/// let members: Vec<_> = g.node_ids().collect();
/// let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 2 });
/// let scheme = derive_scheme(&g, &members, &mapper).unwrap();
/// let snaps = replay(&g, &scheme, 2);
/// assert_eq!(snaps.len(), 2);
/// ```
pub fn replay(graph: &Graph, scheme: &ExecutionScheme, ops: u32) -> Vec<OpSnapshot> {
    let mut counters: Vec<(NodeId, u32)> = scheme.iter().map(|(id, _)| (id, 0)).collect();
    let mut result = Vec::with_capacity(ops as usize);
    for op in 1..=ops {
        let mut updates = Vec::new();
        for (id, t) in counters.iter_mut() {
            // cocco-audit: allow(R1) counters was built from this scheme's own iterator two lines up
            let s = scheme.get(*id).expect("scheme covers id");
            let h = graph.node(*id).out_shape().h;
            for _ in 0..s.upd_num.h.max(1) {
                *t += 1;
                let from = (*t - 1) * s.tiling.delta.h;
                if from >= h {
                    // Tensor exhausted; no further updates occur.
                    *t -= 1;
                    break;
                }
                let to = (from + s.tiling.tile.h - 1).min(h - 1);
                updates.push(UpdateEvent {
                    node: *id,
                    update: *t,
                    from,
                    to,
                });
            }
        }
        result.push(OpSnapshot { op, updates });
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_graph::{Dims2, GraphBuilder, Kernel, LayerOp, TensorShape};
    use cocco_tiling::{derive_scheme, Mapper, MapperPolicy};

    /// The paper's Figure 5/6 example (see `cocco_tiling::flow` tests).
    fn figure5() -> (cocco_graph::Graph, ExecutionScheme) {
        let conv1d = |f: u32, s: u32, p: u32| LayerOp::Conv {
            kernel: Kernel::new(Dims2::new(f, 1), Dims2::new(s, 1), Dims2::new(p, 0)),
            c_out: 1,
        };
        let mut b = GraphBuilder::new("fig5");
        let in2 = b.input(TensorShape::new(64, 1, 1));
        let in1 = b.input(TensorShape::new(64, 1, 1));
        let _n0 = b.add("n0", conv1d(3, 2, 1), &[in2]).unwrap();
        let n1a = b.add("n1a", conv1d(3, 1, 1), &[in2]).unwrap();
        let n1b = b.add("n1b", conv1d(3, 1, 1), &[in1]).unwrap();
        let _n1 = b.eltwise("n1", &[n1a, n1b]).unwrap();
        let _n2 = b.add("n2", conv1d(1, 1, 0), &[in1]).unwrap();
        let g = b.finish().unwrap();
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 1 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        (g, scheme)
    }

    #[test]
    fn figure6_ranges() {
        let (g, scheme) = figure5();
        let snaps = replay(&g, &scheme, 2);
        let id = |name: &str| g.iter().find(|(_, n)| n.name() == name).unwrap().0;
        let ranges = |op: &OpSnapshot, node: NodeId| -> Vec<(u32, u32)> {
            op.updates
                .iter()
                .filter(|u| u.node == node)
                .map(|u| (u.from, u.to))
                .collect()
        };
        // First elementary op, node(-2) (size 6): [0:5], one update.
        assert_eq!(ranges(&snaps[0], id("input")), vec![(0, 5)]);
        // node(-1) (size 4): two updates, [0:3] then [2:5].
        assert_eq!(ranges(&snaps[0], id("input1")), vec![(0, 3), (2, 5)]);
        // node(0) (size 2): one update [0:1].
        assert_eq!(ranges(&snaps[0], id("n0")), vec![(0, 1)]);
        // node(2) (size 2): two updates [0:1], [2:3].
        assert_eq!(ranges(&snaps[0], id("n2")), vec![(0, 1), (2, 3)]);
        // Second elementary op, node(-2): [4:9]; node(-1): [4:7], [6:9].
        assert_eq!(ranges(&snaps[1], id("input")), vec![(4, 9)]);
        assert_eq!(ranges(&snaps[1], id("input1")), vec![(4, 7), (6, 9)]);
        // node(0): [2:3]; node(2): [4:5], [6:7].
        assert_eq!(ranges(&snaps[1], id("n0")), vec![(2, 3)]);
        assert_eq!(ranges(&snaps[1], id("n2")), vec![(4, 5), (6, 7)]);
    }

    #[test]
    fn ranges_stay_within_tensor() {
        let g = cocco_graph::models::chain(3);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 5 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        // 32 rows / 5 per op => 7 ops; replay a few extra to hit clamping.
        for snap in replay(&g, &scheme, 9) {
            for u in &snap.updates {
                let h = g.node(u.node).out_shape().h;
                assert!(u.to < h);
                assert!(u.from <= u.to);
            }
        }
    }

    #[test]
    fn update_counts_follow_upd_num() {
        let (g, scheme) = figure5();
        let snaps = replay(&g, &scheme, 1);
        let id = |name: &str| g.iter().find(|(_, n)| n.name() == name).unwrap().0;
        let count = |node: NodeId| snaps[0].updates.iter().filter(|u| u.node == node).count();
        assert_eq!(count(id("input")), 1);
        assert_eq!(count(id("n1")), 2);
        assert_eq!(count(id("n1a")), 2);
    }

    #[test]
    fn exhausted_tensors_stop_updating() {
        let g = cocco_graph::models::chain(1);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 16 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        // 32 rows / 16 = 2 ops; the third produces nothing.
        let snaps = replay(&g, &scheme, 3);
        assert!(!snaps[1].updates.is_empty());
        assert!(snaps[2].updates.is_empty());
    }
}
