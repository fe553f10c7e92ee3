//! Statistics skip stage 3 (`upd_num`) only where it provably cannot fail:
//! the per-graph rate proof, and the errors statistics report where it
//! does fail.

use cocco::graph::{Dims2, Graph, GraphBuilder, Kernel, LayerOp, NodeId, TensorShape};
use cocco::prelude::*;
use cocco::sim::SimError;
use cocco::tiling::{RateProof, TilingError};

/// Two paths from one input into an eltwise whose stride products differ
/// (1 vs 2) while their output extents agree: no consistent update rate
/// exists.
fn skew() -> Graph {
    let mut b = GraphBuilder::new("skew");
    let i = b.input(TensorShape::new(32, 32, 4));
    let wide = LayerOp::Conv {
        kernel: Kernel::new(Dims2::square(17), Dims2::square(1), Dims2::square(0)),
        c_out: 4,
    };
    let a = b.add("a", wide, &[i]).unwrap();
    let s2 = b.conv("s2", i, 4, Kernel::square_same(3, 2)).unwrap();
    b.eltwise("e", &[a, s2]).unwrap();
    b.finish().unwrap()
}

#[test]
fn the_rate_proof_holds_on_the_registry_and_declines_skew_and_overflow() {
    for (name, build) in cocco::graph::models::registry() {
        assert!(RateProof::of(&build()).holds(), "{name}");
    }
    assert!(!RateProof::of(&skew()).holds());
    // Consistent, but 63 stride-2 layers put 2^63 on the input's rate,
    // and one more stride of 2 would overflow a `u64`: the bound that
    // keeps stage 3's arithmetic exact declines.
    let mut b = GraphBuilder::new("deep-stride");
    let mut x = b.input(TensorShape::new(1, 1, 1));
    for i in 0..63 {
        x = b
            .conv(format!("s{i}"), x, 1, Kernel::square_same(3, 2))
            .unwrap();
    }
    assert!(!RateProof::of(&b.finish().unwrap()).holds());
}

#[test]
fn statistics_return_the_schemes_inconsistent_rates() {
    let vgg16 = cocco::graph::models::vgg16();
    let vgg16_set: Vec<NodeId> = [4, 5, 7, 11, 12, 13, 15, 16, 19, 21]
        .into_iter()
        .map(NodeId::from_index)
        .collect();
    let skew = skew();
    let whole: Vec<NodeId> = skew.node_ids().collect();
    // vgg16 is globally consistent, yet this disconnected set fails in
    // stage 3: a later component meets an earlier one scaled on its own.
    for (graph, members, mapper) in [
        (&vgg16, vgg16_set, Mapper::default()),
        (
            &skew,
            whole,
            Mapper::new(MapperPolicy::Tile { rows: 1, cols: 1 }),
        ),
    ] {
        let config = AcceleratorConfig {
            mapper,
            ..AcceleratorConfig::default()
        };
        let want = derive_scheme(graph, &members, &config.mapper).unwrap_err();
        assert!(
            matches!(want, TilingError::InconsistentRates { .. }),
            "{want:?}"
        );
        let evaluator = Evaluator::new(graph, config);
        let got = evaluator.subgraph_stats(&members);
        assert_eq!(got, Err(SimError::Tiling(want)), "{}", graph.name());
        assert_eq!(evaluator.stats_rate_fallbacks(), 1, "{}", graph.name());
    }
}
