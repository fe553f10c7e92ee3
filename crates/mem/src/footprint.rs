//! Subgraph memory footprints derived from an execution scheme.
//!
//! The footprint formula exists once, per node: [`node_footprint`] sizes
//! the MAIN and SIDE regions of one covered node. [`subgraph_footprint`]
//! folds it into totals plus a per-node breakdown, and the evaluator's
//! statistics pass sums the same function without building the
//! breakdown.

use cocco_graph::{Graph, NodeId};
use cocco_tiling::{ExecutionScheme, NodeTiling};
use serde::{Deserialize, Serialize};

/// Byte footprint of one node's regions.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeFootprint {
    /// MAIN region bytes: `x_h · x_w · C · elem`.
    pub main_bytes: u64,
    /// SIDE region bytes: `(x_h − Δ_h) · (W − x_w) · C · elem`, zero for
    /// pure output nodes or full-width tiles.
    pub side_bytes: u64,
}

impl NodeFootprint {
    /// Total bytes of both regions.
    pub fn total(&self) -> u64 {
        self.main_bytes + self.side_bytes
    }

    /// Logical regions: one MAIN region, plus a SIDE region when it is
    /// non-empty.
    pub fn regions(&self) -> usize {
        1 + usize::from(self.side_bytes > 0)
    }
}

/// The regions of node `id`, covered by a subgraph's scheme as `s`, with
/// `elem_bytes`-wide tensor elements.
///
/// # Examples
///
/// ```
/// use cocco_mem::footprint::node_footprint;
/// use cocco_tiling::{derive_scheme, Mapper};
///
/// let g = cocco_graph::models::chain(2);
/// let members: Vec<_> = g.node_ids().collect();
/// let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
/// for (id, s) in scheme.iter() {
///     assert!(node_footprint(&g, id, &s.tiling, 1).main_bytes > 0);
/// }
/// ```
pub fn node_footprint(graph: &Graph, id: NodeId, s: &NodeTiling, elem_bytes: u64) -> NodeFootprint {
    let shape = graph.node(id).out_shape();
    let c = u64::from(shape.c);
    let main = u64::from(s.tile.h) * u64::from(s.tile.w) * c * elem_bytes;
    let side = if s.interior_consumed {
        u64::from(s.overlap_rows()) * u64::from(shape.w.saturating_sub(s.tile.w)) * c * elem_bytes
    } else {
        0
    };
    NodeFootprint {
        main_bytes: main,
        side_bytes: side,
    }
}

/// Byte footprint of a whole subgraph in the on-chip buffers.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubgraphFootprint {
    /// Activation bytes in the global buffer (all MAIN + SIDE regions,
    /// including the boundary-input tiles loaded from DRAM).
    pub activation_bytes: u64,
    /// Weight bytes resident in the weight buffer (members only).
    pub weight_bytes: u64,
    /// Logical regions required of the buffer-region manager.
    pub regions: usize,
    /// Per-node breakdown, ascending by node id.
    pub per_node: Vec<(NodeId, NodeFootprint)>,
}

impl SubgraphFootprint {
    /// Total bytes across activation and weight storage (the quantity
    /// constrained by a shared-buffer design).
    pub fn total_bytes(&self) -> u64 {
        self.activation_bytes + self.weight_bytes
    }
}

/// Computes the buffer footprint of the subgraph `members` under `scheme`
/// with `elem_bytes`-wide tensor elements.
///
/// `scheme` must have been derived for the same member set (the function
/// works from whatever nodes the scheme covers; members only determine which
/// nodes contribute weights).
///
/// # Examples
///
/// ```
/// use cocco_mem::footprint::subgraph_footprint;
/// use cocco_tiling::{derive_scheme, Mapper, MapperPolicy};
///
/// let g = cocco_graph::models::chain(3);
/// let members: Vec<_> = g.node_ids().collect();
/// let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 1 });
/// let scheme = derive_scheme(&g, &members, &mapper).unwrap();
/// let fp = subgraph_footprint(&g, &members, &scheme, 1);
/// // Full-width tiles never need SIDE regions.
/// assert!(fp.per_node.iter().all(|(_, n)| n.side_bytes == 0));
/// ```
pub fn subgraph_footprint(
    graph: &Graph,
    members: &[NodeId],
    scheme: &ExecutionScheme,
    elem_bytes: u64,
) -> SubgraphFootprint {
    let mut activation = 0u64;
    let mut regions = 0usize;
    let mut per_node = Vec::with_capacity(scheme.len());
    for (id, s) in scheme.iter() {
        let node = node_footprint(graph, id, &s.tiling, elem_bytes);
        regions += node.regions();
        activation += node.total();
        per_node.push((id, node));
    }
    let weight_bytes: u64 = members
        .iter()
        .map(|&m| graph.weight_elements(m) * elem_bytes)
        .sum();
    SubgraphFootprint {
        activation_bytes: activation,
        weight_bytes,
        regions,
        per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_tiling::{derive_scheme, Mapper, MapperPolicy};

    #[test]
    fn partial_width_tiles_create_side_regions() {
        let g = cocco_graph::models::chain(3);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 8 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        let fp = subgraph_footprint(&g, &members, &scheme, 1);
        // Interior 3x3/1 nodes have overlap 2 rows and W − x_w = 32 − 10.
        let interior: Vec<_> = fp
            .per_node
            .iter()
            .filter(|(id, _)| !g.consumers(*id).is_empty())
            .collect();
        assert!(interior.iter().all(|(_, n)| n.side_bytes > 0));
        // Pure output: no SIDE region.
        let out = g.output_ids()[0];
        let out_fp = fp.per_node.iter().find(|(id, _)| *id == out).unwrap().1;
        assert_eq!(out_fp.side_bytes, 0);
        assert_eq!(
            fp.regions,
            fp.per_node.len() + interior.iter().filter(|(_, n)| n.side_bytes > 0).count()
        );
    }

    #[test]
    fn weights_count_members_only() {
        let g = cocco_graph::models::chain(4);
        let ids: Vec<_> = g.node_ids().collect();
        // Members: last two convs; c1 is a boundary input with weights that
        // must NOT be charged to this subgraph.
        let members = vec![ids[3], ids[4]];
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let fp = subgraph_footprint(&g, &members, &scheme, 1);
        let expected: u64 = members.iter().map(|&m| g.weight_elements(m)).sum();
        assert_eq!(fp.weight_bytes, expected);
    }

    #[test]
    fn element_width_scales_linearly() {
        let g = cocco_graph::models::diamond();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let fp1 = subgraph_footprint(&g, &members, &scheme, 1);
        let fp2 = subgraph_footprint(&g, &members, &scheme, 2);
        assert_eq!(fp2.activation_bytes, 2 * fp1.activation_bytes);
        assert_eq!(fp2.weight_bytes, 2 * fp1.weight_bytes);
    }

    #[test]
    fn bigger_subgraphs_need_more_activation_space() {
        let g = cocco_graph::models::chain(6);
        let ids: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::default();
        let small = {
            let m = &ids[..3];
            let s = derive_scheme(&g, m, &mapper).unwrap();
            subgraph_footprint(&g, m, &s, 1).activation_bytes
        };
        let large = {
            let m = &ids[..6];
            let s = derive_scheme(&g, m, &mapper).unwrap();
            subgraph_footprint(&g, m, &s, 1).activation_bytes
        };
        assert!(large > small);
    }

    #[test]
    fn total_bytes_sums_parts() {
        let g = cocco_graph::models::diamond();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let fp = subgraph_footprint(&g, &members, &scheme, 1);
        assert_eq!(fp.total_bytes(), fp.activation_bytes + fp.weight_bytes);
        let sum: u64 = fp.per_node.iter().map(|(_, n)| n.total()).sum();
        assert_eq!(sum, fp.activation_bytes);
    }
}
