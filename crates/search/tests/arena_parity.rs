//! Batch-evaluation parity property test.
//!
//! Drives seeded random mutation / repair / crossover walks through
//! `SearchContext::evaluate_chunks` — the same operator shapes the GA
//! uses, including repair-seeding [`EvalHint`]s — and asserts that every
//! dispatch shape the engine can take ({1, 4} worker threads × {chunk 1,
//! auto} × {inline threshold 0, default}) is **bit-identical** to serial
//! evaluation on every observable output: the full cost stream, the final
//! (repaired) genomes, the recorded trace and the persisted cache
//! snapshot. Every cost must also equal `Evaluator::eval_partition` of the
//! repaired genome. Runs on `resnet50` and `randwire-a`.

use cocco_engine::{CacheSnapshot, ChunkSize, EngineConfig, EvalMemo, TracePoint};
use cocco_graph::{Graph, NodeId};
use cocco_partition::{Partition, PartitionDelta};
use cocco_search::{
    BufferSpace, EvalBatch, EvalCandidate, EvalHint, Genome, Objective, SearchContext,
};
use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, EvalOptions, Evaluator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const POP: usize = 6;
const ROUNDS: usize = 5;
const GROUPS: u32 = 10;
const BUFFER: BufferConfig = BufferConfig::Shared { total: 2 << 20 };

/// Everything a walk observes; two walks are "bit-identical" iff these
/// compare equal.
struct WalkResult {
    costs: Vec<Option<f64>>,
    genomes: Vec<Genome>,
    trace: Vec<TracePoint>,
    snapshot: CacheSnapshot,
}

/// One seeded mutation/repair/crossover walk under an explicit engine
/// configuration. The RNG drives genome construction only — it is consumed
/// identically under every configuration, so any divergence comes from
/// evaluation.
fn walk(model: &Graph, config: EngineConfig) -> WalkResult {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::fixed(BUFFER),
        Objective::partition_only(CostMetric::Ema),
        100_000,
    )
    .with_engine(config);
    let ids: Vec<NodeId> = model.node_ids().collect();
    let mut rng = StdRng::seed_from_u64(0xC0CC0);
    let mut genomes: Vec<Genome> = (0..POP)
        .map(|_| {
            let assignment: Vec<u32> = (0..model.len()).map(|_| rng.gen_range(0..GROUPS)).collect();
            Genome::new(Partition::from_assignment(assignment), BUFFER)
        })
        .collect();
    let mut memos: Vec<Option<Arc<EvalMemo>>> = vec![None; POP];
    let mut costs = Vec::new();
    for _ in 0..ROUNDS {
        let candidates: Vec<EvalCandidate> = (0..POP)
            .map(|i| match rng.gen_range(0..3u32) {
                0 => {
                    // Move-node mutation with the GA's member-set delta
                    // discipline: donor and receiver subgraphs are fully
                    // touched, so unmarked subgraphs are the parent's.
                    let mut child = genomes[i].clone();
                    let mut delta = PartitionDelta::clean(model.len());
                    for _ in 0..rng.gen_range(1..4u32) {
                        let node = ids[rng.gen_range(0..ids.len())];
                        let target = child
                            .partition
                            .subgraph_of(ids[rng.gen_range(0..ids.len())]);
                        let donor = child.partition.subgraph_of(node);
                        delta.touch_subgraphs(&child.partition, donor, target);
                        child.partition.assign(node, target);
                    }
                    let hint = memos[i].clone().map(|memo| EvalHint { memo, delta });
                    EvalCandidate::with_hint(child, hint)
                }
                1 => {
                    // Single-point assignment crossover; the delta is the
                    // honest member-set diff against the parent, and a
                    // clean one hands over the parent's partition (the
                    // clean-delta contract of `EvalHint`).
                    let j = rng.gen_range(0..POP);
                    let cut = rng.gen_range(0..=model.len());
                    let a = genomes[i].partition.assignment();
                    let b = genomes[j].partition.assignment();
                    let mut assignment = a[..cut].to_vec();
                    assignment.extend_from_slice(&b[cut..]);
                    let mut child = Genome::new(Partition::from_assignment(assignment), BUFFER);
                    let hint = memos[i].clone().map(|memo| {
                        let delta =
                            PartitionDelta::between(&genomes[i].partition, &child.partition);
                        if delta.is_clean() {
                            child.partition = genomes[i].partition.clone();
                        }
                        EvalHint { memo, delta }
                    });
                    EvalCandidate::with_hint(child, hint)
                }
                // Re-evaluation without a hint: unseeded repair, then an
                // exact roll-up hit after round one.
                _ => EvalCandidate::new(genomes[i].clone()),
            })
            .collect();
        let mut batch = EvalBatch::single(candidates);
        ctx.evaluate_chunks(&mut batch);
        let candidates = batch.chunks.remove(0).candidates;
        let round: Vec<Option<f64>> = candidates.iter().map(|c| c.cost).collect();
        for (candidate, cost) in candidates.iter().zip(&round) {
            // The test oracle: the whole-partition evaluator on the
            // repaired genome.
            let full = evaluator
                .eval_partition(
                    &candidate.genome.partition.subgraphs(),
                    &BUFFER,
                    EvalOptions::default(),
                )
                .expect("repaired genomes evaluate");
            assert_eq!(
                *cost,
                Some(full.cost_formula1(CostMetric::Ema)),
                "{}: cost disagrees with eval_partition at {} threads",
                model.name(),
                config.resolved_threads()
            );
        }
        costs.extend(round);
        for (i, candidate) in candidates.into_iter().enumerate() {
            genomes[i] = candidate.genome;
            memos[i] = candidate.memo;
        }
    }
    let stats = ctx.engine().stats();
    assert_eq!(
        stats.stats_canonicalize_fallbacks,
        0,
        "recorded hot-path canonicalize fallbacks at {} threads",
        config.resolved_threads()
    );
    WalkResult {
        costs,
        genomes,
        trace: ctx.trace().points(),
        snapshot: ctx.engine().cache().snapshot(),
    }
}

/// Every dispatch shape: worker count × chunk size × inline threshold.
fn dispatch_grid() -> Vec<(String, EngineConfig)> {
    let mut cells = Vec::new();
    for threads in [1u32, 4] {
        for chunk in [ChunkSize::Fixed(1), ChunkSize::Auto] {
            for threshold in [0, EngineConfig::DEFAULT_PARALLEL_THRESHOLD] {
                cells.push((
                    format!("{threads} threads, chunk {chunk:?}, threshold {threshold}"),
                    EngineConfig::with_threads(threads)
                        .with_chunk(chunk)
                        .with_parallel_threshold(threshold),
                ));
            }
        }
    }
    cells
}

fn assert_walks_identical(model: &Graph) {
    let reference = walk(model, EngineConfig::serial());
    assert_eq!(
        reference.costs.len(),
        POP * ROUNDS,
        "budget must never run out in this walk"
    );
    for (cell, config) in dispatch_grid() {
        let other = walk(model, config);
        assert_eq!(
            reference.costs,
            other.costs,
            "{}: cost stream diverged ({cell})",
            model.name()
        );
        assert_eq!(
            reference.genomes,
            other.genomes,
            "{}: repaired genomes diverged ({cell})",
            model.name()
        );
        assert_eq!(
            reference.trace,
            other.trace,
            "{}: traces diverged ({cell})",
            model.name()
        );
        assert_eq!(
            reference.snapshot,
            other.snapshot,
            "{}: persisted cache snapshots diverged ({cell})",
            model.name()
        );
    }
}

#[test]
fn arena_walks_are_bit_identical_on_resnet50() {
    assert_walks_identical(&cocco_graph::models::resnet50());
}

#[test]
fn arena_walks_are_bit_identical_on_randwire_a() {
    assert_walks_identical(&cocco_graph::models::randwire_a());
}
