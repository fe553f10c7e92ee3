//! End-to-end reproduction of the paper's worked examples (Figures 4-6)
//! through the public API.

use cocco::graph::{Dims2, GraphBuilder, Kernel, LayerOp, TensorShape};
use cocco::mem::snapshot::replay;
use cocco::prelude::*;
use cocco::tiling::production::derive_production;

fn conv1d(f: u32, s: u32, p: u32) -> LayerOp {
    LayerOp::Conv {
        kernel: Kernel::new(Dims2::new(f, 1), Dims2::new(s, 1), Dims2::new(p, 0)),
        c_out: 1,
    }
}

/// The Figure 5 subgraph (node(1) split into two single-producer halves).
fn figure5() -> cocco::graph::Graph {
    let mut b = GraphBuilder::new("fig5");
    let in2 = b.input(TensorShape::new(64, 1, 1));
    let in1 = b.input(TensorShape::new(64, 1, 1));
    b.add("n0", conv1d(3, 2, 1), &[in2]).unwrap();
    let n1a = b.add("n1a", conv1d(3, 1, 1), &[in2]).unwrap();
    let n1b = b.add("n1b", conv1d(3, 1, 1), &[in1]).unwrap();
    b.eltwise("n1", &[n1a, n1b]).unwrap();
    b.add("n2", conv1d(1, 1, 0), &[in1]).unwrap();
    b.finish().unwrap()
}

#[test]
fn figure5_derivation_matches_paper() {
    let g = figure5();
    let members: Vec<_> = g.node_ids().collect();
    let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 1 });
    let scheme = derive_scheme(&g, &members, &mapper).unwrap();
    assert!(scheme.exact_upd());
    let s = |name: &str| {
        let id = g.iter().find(|(_, n)| n.name() == name).unwrap().0;
        *scheme.get(id).unwrap()
    };
    // Δ(-2)=4, x(-2)=6, upd(-2)=1
    assert_eq!(s("input").tiling.delta.h, 4);
    assert_eq!(s("input").tiling.tile.h, 6);
    assert_eq!(s("input").upd_num.h, 1);
    // Δ(-1)=2, x(-1)=4, upd(-1)=2
    assert_eq!(s("input1").tiling.delta.h, 2);
    assert_eq!(s("input1").tiling.tile.h, 4);
    assert_eq!(s("input1").upd_num.h, 2);
    // outputs: Δ=x=2; upd(0)=1, upd(1)=upd(2)=2 — the co-prime {1,2,1,2,2}.
    assert_eq!(s("n0").upd_num.h, 1);
    assert_eq!(s("n1").upd_num.h, 2);
    assert_eq!(s("n2").upd_num.h, 2);
}

#[test]
fn figure6_snapshot_matches_paper() {
    let g = figure5();
    let members: Vec<_> = g.node_ids().collect();
    let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 1 });
    let scheme = derive_scheme(&g, &members, &mapper).unwrap();
    let snaps = replay(&g, &scheme, 2);
    let id = |name: &str| g.iter().find(|(_, n)| n.name() == name).unwrap().0;
    let ranges = |op: usize, node: &str| -> Vec<(u32, u32)> {
        snaps[op]
            .updates
            .iter()
            .filter(|u| u.node == id(node))
            .map(|u| (u.from, u.to))
            .collect()
    };
    assert_eq!(ranges(0, "input"), vec![(0, 5)]);
    assert_eq!(ranges(1, "input"), vec![(4, 9)]);
    assert_eq!(ranges(0, "input1"), vec![(0, 3), (2, 5)]);
    assert_eq!(ranges(1, "input1"), vec![(4, 7), (6, 9)]);
}

#[test]
fn figure4_production_centric_extra_data() {
    // Node(-1) input; node(0) 5x5/2; node(1) 1x1/1; node(2) 3x3/2; node(3) add.
    let mut b = GraphBuilder::new("fig4");
    let i = b.input(TensorShape::new(63, 63, 1));
    let n0 = b
        .add(
            "n0",
            LayerOp::Conv {
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
    let g = b.finish().unwrap();
    let members: Vec<_> = g.node_ids().collect();
    let report = derive_production(&g, &members, Dims2::square(5)).unwrap();
    let extra = |name: &str| {
        let id = g.iter().find(|(_, n)| n.name() == name).unwrap().0;
        report.get(id).unwrap().extra_elements()
    };
    // "three extra data of Node(2) along with sixteen extra source data of
    // Node(1) take up extra memory space"
    assert_eq!(extra("n2"), 3);
    assert_eq!(extra("n1"), 16);

    // And the consumption-centric scheme avoids exactly that overhead.
    let mapper = Mapper::new(MapperPolicy::Tile { rows: 1, cols: 1 });
    let scheme = derive_scheme(&g, &members, &mapper).unwrap();
    let consumption_total: u64 = scheme.iter().map(|(_, s)| s.tiling.tile.area()).sum();
    assert!(report.total_buffered() > consumption_total);
}

#[test]
fn buffer_region_manager_matches_paper_overhead() {
    // "272-byte size (17-bit address for the 1MB 64bit-width global
    // buffer)" with N = 64.
    let mgr = cocco::mem::BufferRegionManager::new(1 << 20, 64);
    assert_eq!(mgr.register_file_bytes(), 272);
}
