//! Hot-path micro-benchmarks: prints timings, takes no arguments and
//! asserts nothing.
//!
//! `cargo run --release -p cocco-bench --bin micro`
//!
//! Each case is warmed up, then sampled until ~0.25 s or 50 samples and
//! reported as median (min) per iteration. These single-run numbers locate
//! hot spots; end-to-end performance evidence comes from `perfbench/`
//! (workloads and bounds in `BENCHMARK.json`). The work pins, thread
//! parity and fault checks live in the tests under `tests/tests/`.

use cocco::prelude::*;
use cocco::telemetry::Stopwatch;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Times `f`, printing `name: median (min) per iteration`.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up and batch-size calibration: aim for batches of >= 1 ms.
    let mut batch = 1u32;
    loop {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let budget = Duration::from_millis(250);
    let mut samples = Vec::new();
    let run_start = Stopwatch::start();
    while samples.len() < 50 && (run_start.elapsed() < budget || samples.len() < 5) {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(batch));
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "{name:<42} {:>12} (min {})",
        fmt_time(median),
        fmt_time(min)
    );
}

fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!(
            "micro takes no arguments (got `{arg}`); the work pins and engine \
             checks are tests under tests/tests/, run by `cargo test`"
        );
        std::process::exit(2);
    }
    println!("== micro-benchmarks (median per iteration) ==\n");

    {
        let model = cocco::graph::models::googlenet();
        let members: Vec<_> = model.node_ids().collect();
        let mapper = Mapper::default();
        bench("tiling/derive_scheme_googlenet_whole", || {
            derive_scheme(&model, &members, &mapper).unwrap()
        });
    }

    {
        let model = cocco::graph::models::resnet50();
        let members: Vec<_> = model.node_ids().take(12).collect();
        bench("evaluator/subgraph_stats_cold", || {
            // A fresh evaluator per iteration so the cache never warms.
            let eval = Evaluator::new(&model, AcceleratorConfig::default());
            eval.subgraph_stats(&members).unwrap()
        });
        let eval = Evaluator::new(&model, AcceleratorConfig::default());
        eval.subgraph_stats(&members).unwrap();
        bench("evaluator/subgraph_stats_cached", || {
            eval.subgraph_stats(&members).unwrap()
        });
        let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
        let subgraphs = partition.subgraphs();
        let buffer = BufferConfig::shared(2 << 20);
        bench("evaluator/eval_partition_depth5", || {
            eval.eval_partition(&subgraphs, &buffer, EvalOptions::default())
                .unwrap()
        });
    }

    {
        // Production traffic: GA-style edits (modify-node, split-subgraph,
        // merge-subgraph) of the last repaired randwire-a partition, repaired
        // as a hinted offspring is: seeded by the parent, with the delta.
        use cocco::partition::{repair_seeded, ParentSeed};
        let model = cocco::graph::models::randwire_a();
        let fits = |m: &[NodeId]| m.len() <= 16;
        let mut rng = StdRng::seed_from_u64(42);
        let mut parent = repair(&model, Partition::connected_groups(&model, 8), &fits);
        let mut walk = Vec::new();
        while walk.len() < 64 {
            let mut p = parent.clone();
            let node = NodeId::from_index(rng.gen_range(0..model.len()));
            let (groups, fresh) = (p.subgraphs(), p.fresh_id());
            let near = model.producers(node).iter().chain(model.consumers(node));
            let near: Vec<u32> = near.map(|&v| p.subgraph_of(v)).chain([fresh]).collect();
            let (own, one) = (&groups[p.subgraph_of(node) as usize], [node]);
            let (moved, into) = match rng.gen_range(0..3) {
                0 => (&one[..], near[rng.gen_range(0..near.len())]),
                1 if own.len() >= 2 => (&own[rng.gen_range(1..own.len())..], fresh),
                _ => (&own[..], near[rng.gen_range(0..near.len() - 1)]),
            };
            moved.iter().for_each(|&m| p.assign(m, into));
            let delta = PartitionDelta::between(&parent, &p);
            parent = repair(&model, p.clone(), &fits);
            walk.push((p, delta));
        }
        let (mut i, seed) = (0, Some(ParentSeed::Fitted));
        bench("repair/ga_walk_randwire_a", || {
            i += 1;
            let (p, mut delta) = walk[i % walk.len()].clone();
            repair_seeded(&model, p, &fits, &mut delta, seed)
        });
    }

    {
        // The per-probe key cost: fingerprinting a resnet50 partition's
        // subgraphs and folding them into a partition-level `EvalKey`
        // (what every cache probe pays, with no allocation).
        let model = cocco::graph::models::resnet50();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
        let subgraphs = partition.subgraphs();
        let buffer = BufferConfig::shared(2 << 20);
        let fingerprint = evaluator.fingerprint();
        bench("engine/eval_key_build_resnet50_depth5", || {
            cocco::engine::eval_key(fingerprint, &subgraphs, &buffer, EvalOptions::default())
        });
    }
}
