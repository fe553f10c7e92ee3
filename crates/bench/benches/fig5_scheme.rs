//! Figures 5 and 6 — the worked execution-scheme example: derive Δ, x and
//! upd_num for the paper's five-node subgraph and replay two elementary
//! operations' memory snapshots.
//!
//! Run with: `cargo bench -p cocco-bench --bench fig5_scheme`

use cocco::graph::{Dims2, GraphBuilder, Kernel, LayerOp, TensorShape};
use cocco::mem::snapshot::replay;
use cocco::prelude::*;
use cocco_bench::Table;

fn main() {
    println!("== Figure 5: execution-scheme derivation ==\n");
    // The paper's 1-D example: inputs (-2), (-1); node(0) F3/s2 from (-2);
    // node(1) F3/s1 from both; node(2) F1/s1 from (-1). Node(1) is split
    // into two single-producer convs joined by a point-wise sum.
    let conv1d = |f: u32, s: u32, p: u32| LayerOp::Conv {
        kernel: Kernel::new(Dims2::new(f, 1), Dims2::new(s, 1), Dims2::new(p, 0)),
        c_out: 1,
    };
    let mut b = GraphBuilder::new("fig5");
    let in2 = b.input(TensorShape::new(64, 1, 1));
    let in1 = b.input(TensorShape::new(64, 1, 1));
    b.add("n0", conv1d(3, 2, 1), &[in2]).unwrap();
    let n1a = b.add("n1a", conv1d(3, 1, 1), &[in2]).unwrap();
    let n1b = b.add("n1b", conv1d(3, 1, 1), &[in1]).unwrap();
    b.eltwise("n1", &[n1a, n1b]).unwrap();
    b.add("n2", conv1d(1, 1, 0), &[in1]).unwrap();
    let g = b.finish().unwrap();

    let members: Vec<_> = g.node_ids().collect();
    let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 1 });
    let scheme = derive_scheme(&g, &members, &mapper).unwrap();
    assert!(scheme.exact_upd(), "the example admits an exact solution");

    fn paper_name(name: &str) -> &str {
        match name {
            "input" => "node(-2)",
            "input1" => "node(-1)",
            "n0" => "node(0)",
            "n1a" => "node(1a)",
            "n1b" => "node(1b)",
            "n1" => "node(1)",
            "n2" => "node(2)",
            other => other,
        }
    }
    let mut table = Table::new("fig5_scheme", &["node", "delta", "x", "upd_num"]);
    for (id, s) in scheme.iter() {
        table.row(&[
            paper_name(g.node(id).name()).to_string(),
            s.tiling.delta.h.to_string(),
            s.tiling.tile.h.to_string(),
            s.upd_num.h.to_string(),
        ]);
    }
    table.emit();
    println!(
        "paper values: Δ(-2)=4, x(-2)=6, Δ(-1)=2, x(-1)=4, Δ=x=2 elsewhere,\n\
         co-prime upd_num = {{1, 2, 1, 2, 2}}.\n"
    );

    println!("== Figure 6: memory snapshots of two elementary operations ==\n");
    for snap in replay(&g, &scheme, 2) {
        println!("elementary operation {}:", snap.op);
        for u in &snap.updates {
            println!(
                "  {:<9} update {}: rows [{}:{}]",
                paper_name(g.node(u.node).name()),
                u.update,
                u.from,
                u.to
            );
        }
    }
    println!(
        "\npaper snapshot: node(-2) holds [0:5] then [4:9]; node(-1) performs\n\
         two updates per operation ([0:3],[2:5] then [4:7],[6:9])."
    );
}
