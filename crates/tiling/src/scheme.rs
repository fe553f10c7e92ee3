//! The derived execution scheme of a subgraph.

use cocco_graph::{Dims2, Graph, NodeId};
use serde::{Deserialize, Serialize};

/// Per-node result of stages 1–2 of the consumption-centric derivation
/// (paper Fig. 5): everything buffer sizing reads.
///
/// All quantities are expressed in the node's *output* coordinate system,
/// independently for the height and width dimensions.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeTiling {
    /// Update offset `Δ`: fresh output rows/columns per memory update.
    pub delta: Dims2,
    /// Buffered tile size `x`: rows/columns that must stay resident.
    pub tile: Dims2,
    /// The whole height extent is resident (`Δ.h` reached the tensor height).
    pub full_h: bool,
    /// The whole width extent is resident.
    pub full_w: bool,
    /// Produced outside the subgraph: its tile is loaded from DRAM.
    pub boundary_input: bool,
    /// Consumed by at least one node inside the subgraph (interior data that
    /// needs MAIN + SIDE regions; pure outputs only need a MAIN region).
    pub interior_consumed: bool,
}

impl NodeTiling {
    /// `true` when the whole tensor is resident in both dimensions.
    pub fn fully_buffered(&self) -> bool {
        self.full_h && self.full_w
    }

    /// Overlap rows retained across the row sweep (`x − Δ` in the height
    /// dimension) — the SIDE-region depth of paper Figure 7.
    pub fn overlap_rows(&self) -> u32 {
        self.tile.h.saturating_sub(self.delta.h)
    }
}

/// Per-node result of all three stages: the node's [`NodeTiling`] plus the
/// memory updates it performs per elementary operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeScheme {
    /// Stages 1–2: update offset, tile size and flags.
    pub tiling: NodeTiling,
    /// Memory updates per elementary operation (stage 3, co-prime solution).
    pub upd_num: Dims2,
}

/// The stage 1–2 result of one subgraph: a [`NodeTiling`] for every member
/// and every boundary producer, with no `upd_num`.
///
/// Created by [`derive_tiling`](crate::derive_tiling), which returns an
/// error exactly when [`derive_scheme`](crate::derive_scheme) does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubgraphTiling {
    entries: Vec<(NodeId, NodeTiling)>,
    propagated: bool,
}

impl SubgraphTiling {
    pub(crate) fn new(entries: Vec<(NodeId, NodeTiling)>, propagated: bool) -> Self {
        Self {
            entries,
            propagated,
        }
    }

    /// Iterates over `(id, tiling)` in ascending node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, &NodeTiling)> {
        self.entries.iter().map(|(id, t)| (*id, t))
    }

    /// `true` when the derivation could not prove stage 3 consistent and
    /// ran its rate propagation to decide the result.
    pub fn rates_propagated(&self) -> bool {
        self.propagated
    }
}

/// The execution scheme of one subgraph: a [`NodeScheme`] for every member
/// and every boundary producer feeding the subgraph.
///
/// Created by [`derive_scheme`](crate::derive_scheme).
///
/// # Examples
///
/// ```
/// use cocco_tiling::{derive_scheme, Mapper, MapperPolicy};
///
/// let graph = cocco_graph::models::chain(3);
/// let members: Vec<_> = graph.node_ids().collect();
/// let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 1 });
/// let scheme = derive_scheme(&graph, &members, &mapper).unwrap();
/// for (_, s) in scheme.iter() {
///     assert!(s.tiling.tile.h >= s.tiling.delta.h);
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutionScheme {
    entries: Vec<(NodeId, NodeScheme)>,
    exact: bool,
}

impl ExecutionScheme {
    /// Wraps `entries`, which must be strictly ascending by node id.
    pub(crate) fn new(entries: Vec<(NodeId, NodeScheme)>, exact: bool) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "scheme entries must be strictly ascending"
        );
        Self { entries, exact }
    }

    /// Number of nodes covered (members plus boundary producers).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no nodes are covered (never for schemes produced by
    /// [`derive_scheme`](crate::derive_scheme)).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The scheme of node `id`, if covered.
    pub fn get(&self, id: NodeId) -> Option<&NodeScheme> {
        self.entries
            .binary_search_by_key(&id, |(n, _)| *n)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Iterates over `(id, scheme)` in ascending node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, &NodeScheme)> {
        self.entries.iter().map(|(id, s)| (*id, s))
    }

    /// `true` when stage 3 found an exact co-prime `upd_num` solution (no
    /// node was clamped to its tensor extent and all rates were consistent).
    pub fn exact_upd(&self) -> bool {
        self.exact
    }

    /// Number of elementary operations needed to produce the subgraph's
    /// outputs, per dimension: `ceil(extent / (upd·Δ))` evaluated at the
    /// output nodes (max over outputs when clamping made rates inexact).
    pub fn elementary_ops(&self, graph: &Graph) -> Dims2 {
        let mut ops = Dims2::new(1, 1);
        for (id, s) in self.iter() {
            let t = &s.tiling;
            if t.boundary_input || t.interior_consumed {
                continue; // only output nodes define the op count
            }
            let shape = graph.node(id).out_shape();
            let per_op_h = s.upd_num.h.saturating_mul(t.delta.h).max(1);
            let per_op_w = s.upd_num.w.saturating_mul(t.delta.w).max(1);
            ops.h = ops.h.max(shape.h.div_ceil(per_op_h));
            ops.w = ops.w.max(shape.w.div_ceil(per_op_w));
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy(delta: u32, tile: u32) -> NodeScheme {
        NodeScheme {
            tiling: NodeTiling {
                delta: Dims2::square(delta),
                tile: Dims2::square(tile),
                full_h: false,
                full_w: false,
                boundary_input: false,
                interior_consumed: false,
            },
            upd_num: Dims2::square(1),
        }
    }

    #[test]
    fn get_uses_binary_search() {
        let scheme = ExecutionScheme::new(
            vec![
                (NodeId::from_index(2), dummy(2, 4)),
                (NodeId::from_index(5), dummy(1, 3)),
            ],
            true,
        );
        assert_eq!(scheme.get(NodeId::from_index(2)).unwrap().tiling.delta.h, 2);
        assert_eq!(scheme.get(NodeId::from_index(5)).unwrap().tiling.tile.h, 3);
        assert!(scheme.get(NodeId::from_index(3)).is_none());
        assert_eq!(scheme.len(), 2);
    }

    #[test]
    fn overlap_rows_saturate() {
        assert_eq!(dummy(4, 2).tiling.overlap_rows(), 0);
        assert_eq!(dummy(1, 3).tiling.overlap_rows(), 2);
    }
}
