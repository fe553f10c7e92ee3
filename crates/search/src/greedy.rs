//! Halide-style greedy fusion baseline (paper §4.2.2).

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_graph::{BuildFpHasher, NodeId, NodeSetFp};
use cocco_partition::{Partition, Quotient};
use cocco_sim::BufferConfig;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Serializable state of a [`GreedyDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GreedyState {
    /// Current assignment (`None` until the first step ran).
    assignment: Option<Vec<u32>>,
    done: bool,
    outcome: SearchOutcome,
}

/// Greedy grouping as in Halide's auto-scheduler: start from one subgraph
/// per layer, then repeatedly apply the feasible merge (across a quotient
/// edge) with the greatest cost benefit until every remaining benefit is
/// negative.
///
/// The method is deterministic, runs on a fixed hardware configuration
/// (paper: "the greedy method cannot co-explore with DSE") and tends to be
/// trapped in local minima — exactly the behaviours the paper compares
/// Cocco against.
///
/// As a step-driven state machine, each step applies the one feasible
/// merge with the greatest benefit (a scan over every quotient edge in
/// ascending source order, ties kept by the first); the final step scores
/// the converged partition. Analytic: no step consumes budget.
///
/// A step pays only for what the previous merge changed:
///
/// * **Legality** — merging across edge `a → b` would close a cycle iff
///   another path `a ⇝ b` exists. One pass in reverse topological order
///   builds a descendant bitset per quotient vertex, and the edge is
///   illegal iff `b` is reachable from `a` by two or more edges.
/// * **Costs** — a group's cost and a merge's cost are pure functions of
///   the member set, memoized by its [`NodeSetFp`]. A merge changes two
///   groups only, so every other group and edge answers from the memo;
///   the merged member list is built only on a miss. The memo holds only
///   the live groups and merges across live edges: a merge drops the
///   entries of the two groups it consumes, and the merged pair's entry
///   becomes the new group's. It is never serialized — a resumed driver
///   rebuilds it on demand.
///
/// # Examples
///
/// ```
/// use cocco_search::{BufferSpace, Objective, SearchContext, SearchMethod};
/// use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
///
/// let g = cocco_graph::models::chain(4);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let ctx = SearchContext::new(
///     &g,
///     &eval,
///     BufferSpace::fixed(BufferConfig::shared(4 << 20)),
///     Objective::partition_only(CostMetric::Ema),
///     0, // greedy is analytic: it consumes no samples
/// );
/// let outcome = SearchMethod::greedy().run(&ctx);
/// assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
/// ```
#[derive(Debug)]
pub struct GreedyDriver {
    partition: Option<Partition>,
    outcome: SearchOutcome,
    done: bool,
    costs: CostMemo,
}

impl Default for GreedyDriver {
    /// A fresh driver, starting from one subgraph per layer.
    fn default() -> Self {
        Self {
            partition: None,
            outcome: SearchOutcome::empty(),
            done: false,
            costs: CostMemo::default(),
        }
    }
}

impl GreedyDriver {
    /// Resumes a driver from a serialized state.
    pub fn from_state(state: GreedyState) -> Self {
        Self {
            partition: state.assignment.map(Partition::from_assignment),
            outcome: state.outcome,
            done: state.done,
            costs: CostMemo::default(),
        }
    }
}

impl SearchDriver for GreedyDriver {
    fn name(&self) -> &'static str {
        "Halide (greedy)"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        let graph = ctx.graph();
        let buffer = ctx.space.baseline_buffer();
        let mut partition = self
            .partition
            .take()
            .unwrap_or_else(|| Partition::singletons(graph.len()));
        // Per-subgraph additive cost; infinity when a subgraph cannot fit.
        let groups = partition.subgraphs();
        let fps: Vec<NodeSetFp> = groups.iter().map(|m| NodeSetFp::of_members(m)).collect();
        let group_cost: Vec<f64> = groups
            .iter()
            .zip(&fps)
            .map(|(m, &fp)| {
                self.costs
                    .cost(ctx, &buffer, fp, m, &[])
                    .unwrap_or(f64::INFINITY)
            })
            .collect();
        let quotient = Quotient::build(graph, &partition);
        let legality = MergeLegality::new(&quotient);
        let mut best: Option<(f64, u32, u32)> = None; // (benefit, a, b)
        for a in 0..quotient.num_subgraphs() as u32 {
            for &b in quotient.succs(a) {
                if !legality.is_legal(a, b) {
                    continue;
                }
                let (a_i, b_i) = (a as usize, b as usize);
                let merged_fp = fps[a_i].disjoint_union(fps[b_i]);
                let Some(merged_cost) =
                    self.costs
                        .cost(ctx, &buffer, merged_fp, &groups[a_i], &groups[b_i])
                else {
                    continue; // does not fit
                };
                let benefit = group_cost[a_i] + group_cost[b_i] - merged_cost;
                if benefit > 0.0 && best.is_none_or(|(bb, _, _)| benefit > bb) {
                    best = Some((benefit, a, b));
                }
            }
        }
        match best {
            Some((_, a, b)) => {
                self.costs.forget_merged(&quotient, &fps, a, b);
                // Relabel b's members into a's subgraph; another round next
                // step.
                let target = partition.subgraph_of(groups[a as usize][0]);
                for &m in &groups[b as usize] {
                    partition.assign(m, target);
                }
                self.partition = Some(partition);
                Step::Continue
            }
            None => {
                // Converged: score the result.
                partition.canonicalize(graph);
                let cost = ctx.partition_cost(&partition, &buffer);
                self.outcome.consider(&Genome::new(partition, buffer), cost);
                self.done = true;
                Step::Done
            }
        }
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, _batch: EvalBatch) {}

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        DriverState::Greedy(GreedyState {
            assignment: self.partition.as_ref().map(|p| p.assignment().to_vec()),
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

/// What costing one member set under the baseline buffer gave.
#[derive(Clone, Copy, Debug)]
enum Term {
    /// The subgraph fits, with this additive cost.
    Cost(f64),
    /// The subgraph does not fit.
    TooBig,
    /// The evaluator rejected the member set.
    Error,
}

/// The greedy driver's memo of member-set costs, keyed by fingerprint:
/// the live groups and the merges across live quotient edges.
#[derive(Debug, Default)]
struct CostMemo {
    terms: HashMap<NodeSetFp, Term, BuildFpHasher>,
    /// Scratch for the merged member list of a miss.
    merged: Vec<NodeId>,
}

impl CostMemo {
    /// The cost of the member set `a ∪ b` (fingerprint `fp`; `a` and `b`
    /// ascending and disjoint, `b` empty for a lone group), or `None` when
    /// it does not fit. A set the evaluator rejects records an infeasible
    /// error on the trace at every lookup, exactly as an unmemoized
    /// [`SearchContext::subgraph_cost`] call would.
    fn cost(
        &mut self,
        ctx: &SearchContext<'_>,
        buffer: &BufferConfig,
        fp: NodeSetFp,
        a: &[NodeId],
        b: &[NodeId],
    ) -> Option<f64> {
        let term = match self.terms.get(&fp) {
            Some(&term) => term,
            None => {
                let members = if b.is_empty() {
                    a
                } else {
                    self.merged.clear();
                    self.merged.extend_from_slice(a);
                    self.merged.extend_from_slice(b);
                    self.merged.sort_unstable();
                    &self.merged
                };
                let term = match ctx.subgraph_term(members, buffer) {
                    Ok(Some(cost)) => Term::Cost(cost),
                    Ok(None) => Term::TooBig,
                    Err(_) => Term::Error,
                };
                self.terms.insert(fp, term);
                term
            }
        };
        match term {
            Term::Cost(cost) => Some(cost),
            Term::TooBig => None,
            Term::Error => {
                ctx.trace().record_infeasible_error();
                None
            }
        }
    }

    /// Drops the entries a merge of quotient vertices `a` and `b` makes
    /// stale: the two groups and their merges with every other neighbour.
    /// The entry of `a ∪ b` stays — it is the new group's cost.
    fn forget_merged(&mut self, quotient: &Quotient, fps: &[NodeSetFp], a: u32, b: u32) {
        for (x, other) in [(a, b), (b, a)] {
            let fp = fps[x as usize];
            self.terms.remove(&fp);
            for &n in quotient.succs(x).iter().chain(quotient.preds(x)) {
                if n != other {
                    self.terms.remove(&fp.disjoint_union(fps[n as usize]));
                }
            }
        }
    }
}

/// Which quotient edges a merge may cross without closing a cycle, from
/// one reachability pass: `far` holds, per vertex, a bitset of the
/// vertices it reaches by two or more edges. Merging across `a → b` is
/// legal iff `b` is not among them — a path `a ⇝ b` other than the edge
/// itself must leave through some successor `s ≠ b` (in a DAG, `s = b`
/// would need a cycle `b ⇝ b`).
struct MergeLegality {
    words: usize,
    far: Vec<u64>,
}

impl MergeLegality {
    /// Runs the pass over `quotient` in reverse topological order. A
    /// cyclic quotient (never reached from a valid partition) allows no
    /// merge.
    fn new(quotient: &Quotient) -> Self {
        let k = quotient.num_subgraphs();
        let words = k.div_ceil(64);
        let Some(order) = quotient.topo_order() else {
            return Self {
                words,
                far: vec![u64::MAX; k * words],
            };
        };
        // reach[v] = far[v] ∪ succs(v): everything v reaches.
        let mut reach = vec![0u64; k * words];
        let mut far = vec![0u64; k * words];
        for &v in order.iter().rev() {
            let row = v as usize * words..(v as usize + 1) * words;
            for &s in quotient.succs(v) {
                let s_row = &reach[s as usize * words..(s as usize + 1) * words];
                for (f, &r) in far[row.clone()].iter_mut().zip(s_row) {
                    *f |= r;
                }
            }
            let dst = &mut reach[row.clone()];
            dst.copy_from_slice(&far[row]);
            for &s in quotient.succs(v) {
                dst[s as usize / 64] |= 1 << (s % 64);
            }
        }
        Self { words, far }
    }

    /// Whether merging across the quotient edge `a → b` keeps the
    /// quotient acyclic.
    fn is_legal(&self, a: u32, b: u32) -> bool {
        self.far[a as usize * self.words + b as usize / 64] & (1 << (b % 64)) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use crate::SearchMethod;
    use cocco_partition::repair;
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Is there a path `a ⇝ b` in the quotient other than the direct edge?
    /// The DFS oracle of [`MergeLegality`].
    fn has_indirect_path(quotient: &Quotient, a: u32, b: u32) -> bool {
        let mut seen = vec![false; quotient.num_subgraphs()];
        let mut stack: Vec<u32> = quotient
            .succs(a)
            .iter()
            .copied()
            .filter(|&s| s != b)
            .collect();
        for &s in &stack {
            seen[s as usize] = true;
        }
        while let Some(v) = stack.pop() {
            if v == b {
                return true;
            }
            for &s in quotient.succs(v) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Asserts that [`MergeLegality`] agrees with the DFS oracle on every
    /// quotient edge of `partition`; returns how many edges are illegal.
    fn assert_legality_matches_oracle(
        graph: &cocco_graph::Graph,
        partition: &Partition,
        what: &str,
    ) -> usize {
        let q = Quotient::build(graph, partition);
        let legality = MergeLegality::new(&q);
        let mut illegal = 0;
        for a in 0..q.num_subgraphs() as u32 {
            for &b in q.succs(a) {
                let indirect = has_indirect_path(&q, a, b);
                assert_eq!(
                    legality.is_legal(a, b),
                    !indirect,
                    "{what}: edge {a} -> {b}"
                );
                illegal += usize::from(indirect);
            }
        }
        illegal
    }

    #[test]
    fn merge_legality_matches_the_dfs_oracle() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut illegal = 0;
        for &(name, build) in cocco_graph::models::registry() {
            let g = build();
            let n = g.len();
            illegal += assert_legality_matches_oracle(&g, &Partition::singletons(n), name);
            // The partition after every greedy step.
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            let ctx = SearchContext::new(
                &g,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                0,
            );
            let mut driver = GreedyDriver::default();
            let mut steps = 0;
            while matches!(driver.next_batch(&ctx), Step::Continue) {
                let partition = driver.partition.as_ref().unwrap();
                illegal +=
                    assert_legality_matches_oracle(&g, partition, &format!("{name} step {steps}"));
                steps += 1;
            }
            assert!(steps > 0, "{name}: greedy merged nothing");
            // Seeded random valid partitions, from few large subgraphs to
            // many small ones.
            for round in 0..6 {
                let labels = rng.gen_range(2..=n as u32);
                let assignment = (0..n).map(|_| rng.gen_range(0..labels)).collect();
                let partition = repair(&g, Partition::from_assignment(assignment), &|_| true);
                illegal += assert_legality_matches_oracle(
                    &g,
                    &partition,
                    &format!("{name} random {round}"),
                );
            }
        }
        assert!(illegal > 0, "no partition had an illegal merge to check");
    }

    fn run_on(graph: &cocco_graph::Graph, buffer: BufferConfig) -> (SearchOutcome, f64) {
        let eval = Evaluator::new(graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            graph,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        let out = SearchMethod::greedy().run(&ctx);
        let singles_cost = {
            let p = Partition::singletons(graph.len());
            ctx.partition_cost(&p, &buffer)
        };
        (out, singles_cost)
    }

    #[test]
    fn never_worse_than_singletons() {
        for model in ["resnet50", "googlenet", "randwire-a"] {
            let g = cocco_graph::models::by_name(model).unwrap();
            let (out, singles) = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
            assert!(
                out.best_cost <= singles,
                "{model}: greedy {} > singletons {singles}",
                out.best_cost
            );
        }
    }

    #[test]
    fn result_is_valid() {
        let g = cocco_graph::models::googlenet();
        let (out, _) = run_on(&g, BufferConfig::separate(1 << 20, 1152 << 10));
        let best = out.best.unwrap();
        assert!(best.partition.validate(&g).is_ok());
    }

    #[test]
    fn merges_whole_chain_when_buffer_allows() {
        let g = cocco_graph::models::chain(6);
        let (out, _) = run_on(&g, BufferConfig::shared(8 << 20));
        assert_eq!(out.best.unwrap().partition.num_subgraphs(), 1);
    }

    #[test]
    fn respects_capacity() {
        let g = cocco_graph::models::chain(6);
        // Buffer large enough for ~2 layers' tiles only.
        let (out, _) = run_on(&g, BufferConfig::shared(4 << 10));
        let best = out.best.unwrap();
        for members in best.partition.subgraphs() {
            let eval = Evaluator::new(&g, AcceleratorConfig::default());
            let stats = eval.subgraph_stats(&members).unwrap();
            assert!(stats.act_footprint_bytes + stats.wgt_resident_bytes <= 4 << 10);
        }
    }

    #[test]
    fn indirect_path_detection() {
        // diamond quotient: a -> {l, r} -> add as 4 subgraphs.
        let g = cocco_graph::models::diamond();
        let p = Partition::from_assignment(vec![0, 0, 1, 2, 3]);
        let q = Quotient::build(&g, &p);
        // 0 -> 1 -> 3 and 0 -> 2 -> 3: merging 0 with 3 would close a
        // cycle; but that's not an edge. Check edge 0 -> 1: no indirect
        // path 0 ⇝ 1.
        assert!(!has_indirect_path(&q, 0, 1));
        // Edge 1 -> 3: no indirect path 1 ⇝ 3 (paths via 2 start at 0).
        assert!(!has_indirect_path(&q, 1, 3));
    }
}
