//! The production-centric scheme of paper Figure 4(a), for comparison.
//!
//! Production-centric execution fixes the *input* tile sizes and derives the
//! subsequent layers forward: every node produces as much as its producers
//! allow, and results that downstream joins cannot consume yet sit in the
//! buffer as "extra data". The paper's Figure 4 example caches 3 extra
//! elements of Node(2) and 16 extra source elements of Node(1); the tests
//! below reproduce exactly those numbers.

use crate::error::TilingError;
use cocco_graph::{Dims2, EdgeReq, Graph, NodeId};
use std::collections::BTreeMap;

/// Per-node result of the production-centric forward derivation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct ProductionNode {
    /// Elements produced (per dimension) in one elementary operation.
    pub produced: Dims2,
    /// Elements actually required (per dimension) to feed the subgraph's
    /// outputs this operation.
    pub needed: Dims2,
}

impl ProductionNode {
    /// Extra cached elements: `produced_area − needed_area` (spatial only;
    /// multiply by channels for bytes).
    pub fn extra_elements(&self) -> u64 {
        self.produced.area().saturating_sub(self.needed.area())
    }
}

/// Result of [`derive_production`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProductionReport {
    entries: Vec<(NodeId, ProductionNode)>,
}

impl ProductionReport {
    /// The derivation result for node `id`, if covered.
    pub fn get(&self, id: NodeId) -> Option<&ProductionNode> {
        self.entries
            .binary_search_by_key(&id, |(n, _)| *n)
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Iterates over `(id, node)` pairs in ascending node order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, &ProductionNode)> {
        self.entries.iter().map(|(id, s)| (*id, s))
    }

    /// Total spatial elements held in the buffer during one elementary
    /// operation (sum of produced areas; multiply by channels for bytes —
    /// see [`total_buffered_with`](Self::total_buffered_with)).
    pub fn total_buffered(&self) -> u64 {
        self.entries.iter().map(|(_, n)| n.produced.area()).sum()
    }

    /// Total buffered elements weighting each node's area by `channels(id)`.
    pub fn total_buffered_with(&self, channels: impl Fn(NodeId) -> u64) -> u64 {
        self.entries
            .iter()
            .map(|(id, n)| n.produced.area() * channels(*id))
            .sum()
    }

    /// Total extra (produced but not needed) elements across the subgraph.
    pub fn total_extra(&self) -> u64 {
        self.entries.iter().map(|(_, n)| n.extra_elements()).sum()
    }
}

/// Runs the production-centric forward derivation over `members` with the
/// given tile of every boundary/input producer.
///
/// # Errors
///
/// Returns an error if `members` is empty or references unknown nodes.
///
/// # Examples
///
/// ```
/// use cocco_graph::Dims2;
/// use cocco_tiling::production::derive_production;
///
/// let g = cocco_graph::models::diamond();
/// let members: Vec<_> = g.node_ids().collect();
/// let report = derive_production(&g, &members, Dims2::square(5)).unwrap();
/// assert!(report.total_buffered() > 0);
/// ```
pub fn derive_production(
    graph: &Graph,
    members: &[NodeId],
    input_tile: Dims2,
) -> Result<ProductionReport, TilingError> {
    if members.is_empty() {
        return Err(TilingError::EmptySubgraph);
    }
    let n = graph.len();
    let mut is_member = vec![false; n];
    for &m in members {
        if m.index() >= n {
            return Err(TilingError::UnknownNode { node: m });
        }
        if is_member[m.index()] {
            return Err(TilingError::DuplicateMember { node: m });
        }
        is_member[m.index()] = true;
    }
    let mut in_ext = vec![false; n];
    for &m in members {
        in_ext[m.index()] = true;
        for &p in graph.producers(m) {
            in_ext[p.index()] = true;
        }
    }
    let ext: Vec<NodeId> = (0..n)
        .map(NodeId::from_index)
        .filter(|id| in_ext[id.index()])
        .collect();

    // Forward pass: produced extents.
    let mut produced: BTreeMap<NodeId, Dims2> = BTreeMap::new();
    for &u in &ext {
        let shape = graph.node(u).out_shape();
        let extent = Dims2::new(shape.h, shape.w);
        let sources: Vec<NodeId> = graph
            .producers(u)
            .iter()
            .copied()
            .filter(|p| in_ext[p.index()] && is_member[u.index()])
            .collect();
        let p = if sources.is_empty() || !is_member[u.index()] {
            // Boundary producer or source member: gets the input tile.
            Dims2::new(input_tile.h.min(extent.h), input_tile.w.min(extent.w))
        } else {
            let mut acc = extent;
            for s in sources {
                let avail = produced[&s];
                let out = match graph.edge_req(s, u) {
                    EdgeReq::Full => {
                        let src_shape = graph.node(s).out_shape();
                        if avail.h >= src_shape.h && avail.w >= src_shape.w {
                            extent
                        } else {
                            Dims2::new(0, 0)
                        }
                    }
                    EdgeReq::Sliding(k) => Dims2::new(
                        forward_extent(avail.h, k.size.h, k.stride.h),
                        forward_extent(avail.w, k.size.w, k.stride.w),
                    ),
                };
                acc.h = acc.h.min(out.h);
                acc.w = acc.w.min(out.w);
            }
            Dims2::new(acc.h.min(extent.h), acc.w.min(extent.w))
        };
        produced.insert(u, p);
    }

    // Backward pass: needed extents, driven by the subgraph outputs.
    let mut needed: BTreeMap<NodeId, Dims2> = BTreeMap::new();
    for &u in ext.iter().rev() {
        let consumers: Vec<NodeId> = graph
            .consumers(u)
            .iter()
            .copied()
            .filter(|c| is_member[c.index()])
            .collect();
        let need = if consumers.is_empty() {
            produced[&u]
        } else {
            let mut acc = Dims2::new(0, 0);
            for v in consumers {
                let nv = needed[&v];
                let req = match graph.edge_req(u, v) {
                    EdgeReq::Full => {
                        let shape = graph.node(u).out_shape();
                        Dims2::new(shape.h, shape.w)
                    }
                    EdgeReq::Sliding(k) => Dims2::new(
                        backward_extent(nv.h, k.size.h, k.stride.h),
                        backward_extent(nv.w, k.size.w, k.stride.w),
                    ),
                };
                acc.h = acc.h.max(req.h);
                acc.w = acc.w.max(req.w);
            }
            acc
        };
        let p = produced[&u];
        needed.insert(u, Dims2::new(need.h.min(p.h), need.w.min(p.w)));
    }

    let mut entries: Vec<(NodeId, ProductionNode)> = ext
        .iter()
        .map(|&u| {
            (
                u,
                ProductionNode {
                    produced: produced[&u],
                    needed: needed[&u],
                },
            )
        })
        .collect();
    entries.sort_by_key(|(id, _)| *id);
    Ok(ProductionReport { entries })
}

/// Output rows producible from `avail` input rows with window `f`, stride
/// `s` (no padding inside a tile).
fn forward_extent(avail: u32, f: u32, s: u32) -> u32 {
    if avail < f {
        0
    } else {
        (avail - f) / s.max(1) + 1
    }
}

/// Input rows required to produce `rows` output rows.
fn backward_extent(rows: u32, f: u32, s: u32) -> u32 {
    if rows == 0 {
        0
    } else {
        f + (rows - 1) * s.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_graph::{GraphBuilder, Kernel, LayerOp, TensorShape};

    /// The paper's Figure 4 subgraph: Node(-1) input, Node(0) 5×5/2,
    /// Node(1) 1×1/1, Node(2) 3×3/2, Node(3) add.
    fn fig4() -> cocco_graph::Graph {
        let mut b = GraphBuilder::new("fig4");
        let i = b.input(TensorShape::new(63, 63, 1));
        let n0 = b
            .add(
                "n0",
                LayerOp::Conv {
                    // pad 1 so the two branches join at the same 31×31.
                    kernel: Kernel::new(Dims2::square(5), Dims2::square(2), Dims2::square(1)),
                    c_out: 1,
                },
                &[i],
            )
            .unwrap();
        let n1 = b
            .add(
                "n1",
                LayerOp::Conv {
                    kernel: Kernel::square_valid(1, 1),
                    c_out: 1,
                },
                &[i],
            )
            .unwrap();
        let n2 = b
            .add(
                "n2",
                LayerOp::Conv {
                    kernel: Kernel::new(Dims2::square(3), Dims2::square(2), Dims2::square(0)),
                    c_out: 1,
                },
                &[n1],
            )
            .unwrap();
        b.eltwise("n3", &[n0, n2]).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn figure4_extra_data() {
        let g = fig4();
        let members: Vec<_> = g.node_ids().collect();
        let report = derive_production(&g, &members, Dims2::square(5)).unwrap();
        let by_name = |name: &str| {
            let id = g.iter().find(|(_, n)| n.name() == name).unwrap().0;
            *report.get(id).unwrap()
        };
        // With a 5×5 input tile: Node(0) produces 1×1, Node(1) 5×5,
        // Node(2) 2×2, Node(3) 1×1.
        assert_eq!(by_name("n0").produced, Dims2::square(1));
        assert_eq!(by_name("n1").produced, Dims2::square(5));
        assert_eq!(by_name("n2").produced, Dims2::square(2));
        assert_eq!(by_name("n3").produced, Dims2::square(1));
        // The paper's extra data: 3 elements of Node(2), 16 of Node(1).
        assert_eq!(by_name("n2").extra_elements(), 3);
        assert_eq!(by_name("n1").extra_elements(), 16);
        assert_eq!(by_name("n0").extra_elements(), 0);
    }

    #[test]
    fn production_buffers_at_least_consumption() {
        // For the Figure 4 graph the production-centric scheme caches more
        // data than the consumption-centric scheme with matching output
        // tiles (1×1 at the join).
        let g = fig4();
        let members: Vec<_> = g.node_ids().collect();
        let prod = derive_production(&g, &members, Dims2::square(5)).unwrap();
        let mapper = crate::Mapper::new(crate::MapperPolicy::Tile { rows: 1, cols: 1 });
        let cons = crate::derive_scheme(&g, &members, &mapper).unwrap();
        let cons_total: u64 = cons.iter().map(|(_, s)| s.tiling.tile.area()).sum();
        assert!(
            prod.total_buffered() > cons_total,
            "production {} should exceed consumption {}",
            prod.total_buffered(),
            cons_total
        );
    }

    #[test]
    fn needed_never_exceeds_produced() {
        let g = cocco_graph::models::googlenet();
        let members: Vec<_> = g.node_ids().collect();
        let report = derive_production(&g, &members, Dims2::square(8)).unwrap();
        for (_, n) in report.iter() {
            assert!(n.needed.h <= n.produced.h);
            assert!(n.needed.w <= n.produced.w);
        }
    }

    #[test]
    fn empty_members_rejected() {
        let g = cocco_graph::models::chain(2);
        assert!(matches!(
            derive_production(&g, &[], Dims2::square(4)),
            Err(TilingError::EmptySubgraph)
        ));
    }

    #[test]
    fn starved_join_produces_zero() {
        // A tiny input tile cannot feed a 5×5 window: downstream produces 0.
        let g = fig4();
        let members: Vec<_> = g.node_ids().collect();
        let report = derive_production(&g, &members, Dims2::square(3)).unwrap();
        let n3 = g.iter().find(|(_, n)| n.name() == "n3").unwrap().0;
        assert_eq!(report.get(n3).unwrap().produced, Dims2::new(0, 0));
    }
}
