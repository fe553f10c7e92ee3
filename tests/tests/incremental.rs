//! Mutation walks and hinted evaluation: exact deltas over random
//! mutation sequences, and bit-identity with the whole-partition evaluator
//! over those walks, across thread counts and for every stochastic
//! searcher.

use cocco::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One random partition edit in the style of the GA operators, recording
/// the touched subgraphs into `delta` under the member-set invariant
/// (every member of every changed subgraph is marked).
fn random_edit(g: &Graph, p: &mut Partition, delta: &mut PartitionDelta, rng: &mut StdRng) {
    match rng.gen_range(0..3u32) {
        0 => {
            // Move one node to a neighbouring or fresh subgraph.
            let node = NodeId::from_index(rng.gen_range(0..g.len()));
            let mut candidates: Vec<u32> = g
                .producers(node)
                .iter()
                .chain(g.consumers(node).iter())
                .map(|&v| p.subgraph_of(v))
                .filter(|&sg| sg != p.subgraph_of(node))
                .collect();
            candidates.sort_unstable();
            candidates.dedup();
            candidates.push(p.fresh_id());
            let target = candidates[rng.gen_range(0..candidates.len())];
            delta.touch_subgraphs(p, p.subgraph_of(node), target);
            p.assign(node, target);
        }
        1 => {
            // Split one subgraph at a random topological point.
            let groups = p.subgraphs();
            let splittable: Vec<_> = groups.iter().filter(|m| m.len() >= 2).collect();
            if !splittable.is_empty() {
                let group = splittable[rng.gen_range(0..splittable.len())];
                let cut = rng.gen_range(1..group.len());
                let fresh = p.fresh_id();
                delta.touch_members(group);
                for &m in &group[cut..] {
                    p.assign(m, fresh);
                }
            }
        }
        _ => {
            // Merge across a random quotient edge.
            let quotient = Quotient::build(g, p);
            let groups = p.subgraphs();
            let edges: Vec<(u32, u32)> = (0..quotient.num_subgraphs() as u32)
                .flat_map(|a| quotient.succs(a).iter().map(move |&b| (a, b)))
                .collect();
            if !edges.is_empty() {
                let (a, b) = edges[rng.gen_range(0..edges.len())];
                let target = p.subgraph_of(groups[a as usize][0]);
                delta.touch_members(&groups[a as usize]);
                delta.touch_members(&groups[b as usize]);
                for &m in &groups[b as usize] {
                    p.assign(m, target);
                }
            }
        }
    }
}

#[test]
fn between_marks_exactly_the_changed_member_sets_over_mutation_walks() {
    // The crossover delta's oracle: over random mutation + repair walks, a
    // node is dirty in `PartitionDelta::between` iff its member set (from
    // `Partition::subgraphs`) is not one of the previous partition's. The
    // walk's own delta, recorded by the edits and repair, covers it.
    for model in ["randwire-a", "resnet50"] {
        let g = cocco::graph::models::by_name(model).unwrap();
        let mut rng = StdRng::seed_from_u64(0xF19E5);
        let mut partition = repair(&g, Partition::connected_groups(&g, 4), &|m| m.len() <= 12);
        for step in 0..80 {
            let before = partition.clone();
            let mut delta = PartitionDelta::clean(g.len());
            for _ in 0..rng.gen_range(1..=3u32) {
                random_edit(&g, &mut partition, &mut delta, &mut rng);
            }
            partition = repair_with_delta(&g, partition, &|m| m.len() <= 12, &mut delta);
            let between = PartitionDelta::between(&before, &partition);
            let old_sets: BTreeSet<Vec<NodeId>> = before.subgraphs().into_iter().collect();
            for members in partition.subgraphs() {
                let changed = !old_sets.contains(&members);
                for &m in &members {
                    assert_eq!(between.is_dirty(m), changed, "{model} step {step}: {m:?}");
                    assert!(!changed || delta.is_dirty(m), "{model} step {step}: {m:?}");
                }
            }
        }
    }
}

#[test]
fn incremental_scoring_is_bit_identical_over_random_mutation_sequences() {
    for model in ["randwire-a", "resnet50"] {
        let g = cocco::graph::models::by_name(model).unwrap();
        let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let fits = |members: &[NodeId]| -> bool {
            evaluator
                .subgraph_stats(members)
                .is_ok_and(|s| buffer.fits(s.act_footprint_bytes, s.wgt_resident_bytes))
        };

        let mut rng = StdRng::seed_from_u64(0xDE17A);
        let mut partition = repair(&g, Partition::connected_groups(&g, 4), &fits);
        for step in 0..60 {
            // Mutate (1-3 edits), repair, then score and compare against
            // the whole-partition evaluator, bit for bit.
            let mut delta = PartitionDelta::clean(g.len());
            for _ in 0..rng.gen_range(1..=3u32) {
                random_edit(&g, &mut partition, &mut delta, &mut rng);
            }
            partition = repair_with_delta(&g, partition, &fits, &mut delta);
            let (scored, memo) = engine.score_partition(&evaluator, &partition, &buffer, options);
            let full = evaluator
                .eval_partition(&partition.subgraphs(), &buffer, options)
                .unwrap();
            assert_eq!(
                scored.ema_bytes, full.ema_bytes,
                "{model} step {step}: EMA diverged"
            );
            assert_eq!(
                scored.energy_pj, full.energy_pj,
                "{model} step {step}: energy diverged (must be bit-identical)"
            );
            assert_eq!(scored.fits, full.fits, "{model} step {step}: fits diverged");
            assert!(
                memo.is_some(),
                "{model} step {step}: a good score has a memo"
            );
        }
    }
}

/// Runs one seeded search on resnet50 under an explicit engine
/// configuration and returns everything determinism is judged on.
fn resnet_run(
    method: SearchMethod,
    engine: EngineConfig,
) -> (f64, Option<Genome>, Vec<TracePoint>, EngineStats) {
    let g = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &g,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        400,
    )
    .with_engine(engine);
    let out = method.run(&ctx);
    (
        out.best_cost,
        out.best,
        ctx.trace().points(),
        ctx.engine().stats(),
    )
}

#[test]
fn ga_sa_twostep_incremental_matches_full_path_at_any_thread_count() {
    // The acceptance criterion: seeded GA/SA/two-step runs on resnet50
    // produce bit-identical best cost, genome and trace serial and
    // parallel, and report exactly the cost the whole-partition evaluator
    // (the full path) gives the best genome.
    let g = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&g, AcceleratorConfig::default());
    let objective = Objective::paper_energy_capacity();
    let alpha = objective.alpha.expect("a Formula-2 objective");
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let reference = resnet_run(method.clone().with_seed(17), EngineConfig::serial());
        for threads in [2u32, 4] {
            let parallel = resnet_run(
                method.clone().with_seed(17),
                EngineConfig::with_threads(threads),
            );
            assert_eq!(
                reference.0, parallel.0,
                "{name}: best cost diverged at {threads} threads"
            );
            assert_eq!(
                reference.1, parallel.1,
                "{name}: best genome diverged at {threads} threads"
            );
            assert_eq!(
                reference.2, parallel.2,
                "{name}: trace diverged at {threads} threads"
            );
        }
        let best = reference.1.as_ref().expect("the search found a design");
        let full = evaluator
            .eval_partition(
                &best.partition.subgraphs(),
                &best.buffer,
                EvalOptions::default(),
            )
            .unwrap();
        assert_eq!(
            reference.0,
            full.cost_formula2(objective.metric, alpha),
            "{name}: best cost differs from the whole-partition evaluator"
        );
    }
}

#[test]
fn persistent_and_serial_pools_are_bit_identical() {
    // The pool determinism criterion: seeded GA and SA runs on resnet50
    // produce bit-identical best cost, genome and trace through the
    // persistent pool and plain serial evaluation.
    for method in [SearchMethod::ga(), SearchMethod::sa()] {
        let name = method.name();
        let reference = resnet_run(method.clone().with_seed(29), EngineConfig::serial());
        for threads in [2u32, 4] {
            let run = resnet_run(
                method.clone().with_seed(29),
                EngineConfig::with_threads(threads),
            );
            assert_eq!(
                reference.0, run.0,
                "{name}: best cost diverged at {threads} threads"
            );
            assert_eq!(
                reference.1, run.1,
                "{name}: best genome diverged at {threads} threads"
            );
            assert_eq!(
                reference.2, run.2,
                "{name}: trace diverged at {threads} threads"
            );
            assert_eq!(
                run.3.stats_canonicalize_fallbacks, 0,
                "{name}: scoring sorted member copies at {threads} threads"
            );
        }
    }
}
