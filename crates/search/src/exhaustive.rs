//! Enumeration-based baseline: state-compression DP over downsets
//! (Fused-CNN / Jangda et al., improved as in paper §4.2.1).
//!
//! A state is the *downset* of already-computed layers; a transition
//! executes one more subgraph — any connected, predecessor-closed, fitting
//! subset of the remaining layers. Memoizing on the downset collapses all
//! execution orders that cover the same layers, which is the paper's
//! "recording one subgraph in the state" improvement. The method is exact
//! but still exponential for wide irregular graphs, so explicit state and
//! expansion budgets turn "cannot complete in a reasonable time" into a
//! reportable outcome ([`SearchOutcome::completed`]).

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::ga::check_partition;
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_graph::{Graph, NodeId};
use cocco_partition::Partition;
use cocco_sim::BufferConfig;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// Abort thresholds for the enumeration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExhaustiveLimits {
    /// Maximum number of distinct downset states.
    pub max_states: usize,
    /// Maximum number of subgraph-enumeration steps.
    pub max_expansions: u64,
}

impl Default for ExhaustiveLimits {
    fn default() -> Self {
        Self {
            max_states: 200_000,
            max_expansions: 50_000_000,
        }
    }
}

type Bits = Box<[u64]>;

fn bits_new(words: usize) -> Bits {
    vec![0u64; words].into_boxed_slice()
}

fn bits_get(b: &[u64], i: usize) -> bool {
    b[i / 64] >> (i % 64) & 1 == 1
}

fn bits_set(b: &mut [u64], i: usize) {
    b[i / 64] |= 1 << (i % 64);
}

fn bits_clear(b: &mut [u64], i: usize) {
    b[i / 64] &= !(1 << (i % 64));
}

fn bits_count(b: &[u64]) -> usize {
    b.iter().map(|w| w.count_ones() as usize).sum()
}

#[derive(Clone)]
struct StateInfo {
    cost: f64,
    back: Option<(Bits, Vec<u32>)>,
}

/// One serialized downset state: the downset bits, its best cost (always
/// finite) and the back-pointer `(parent downset, executed subgraph)`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct ExhaustiveEntry {
    downset: Vec<u64>,
    cost: f64,
    back: Option<(Vec<u64>, Vec<u32>)>,
}

/// Serializable state of an [`ExhaustiveDriver`]: the per-level downset
/// tables (sorted by downset, so snapshots are stable) plus the
/// level cursor and abort counters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExhaustiveState {
    levels: Vec<Vec<ExhaustiveEntry>>,
    level: u64,
    total_states: u64,
    expansions: u64,
    done: bool,
    outcome: SearchOutcome,
}

impl ExhaustiveState {
    /// Checks the state against a graph of `graph.len()` = n nodes, whose
    /// downsets take w = ⌈n / 64⌉ words:
    ///
    /// * a best design found so far is a partition of the graph;
    /// * the table has one level per node count 0..=n, or none at level 0
    ///   (a table not yet initialized);
    /// * the next level to expand is at most n;
    /// * every downset has w words, no bit at or past n, and as many bits
    ///   as its level's index, and a finite cost;
    /// * every back-pointer names a parent downset of the table and a
    ///   non-empty member list below n, outside the parent, that the
    ///   parent extends to the downset — so the chain reconstruction walks
    ///   strictly smaller states down to the empty one.
    pub(crate) fn check(&self, graph: &Graph) -> Result<(), String> {
        if let Some(best) = &self.outcome.best {
            check_partition(graph, &best.partition)
                .map_err(|e| format!("enumeration best design: {e}"))?;
        }
        let n = graph.len();
        let words = n.div_ceil(64);
        if self.levels.is_empty() && self.level == 0 {
            return Ok(());
        }
        if self.levels.len() != n + 1 {
            return Err(format!(
                "enumeration table has {} levels at level {}; the graph needs {}",
                self.levels.len(),
                self.level,
                n + 1
            ));
        }
        if self.level > n as u64 {
            return Err(format!(
                "enumeration level {} is past the last level {n}",
                self.level
            ));
        }
        let downset = |bits: &[u64]| -> Result<usize, String> {
            if bits.len() != words {
                return Err(format!(
                    "a downset of {} words; the graph needs {words}",
                    bits.len()
                ));
            }
            if (n..words * 64).any(|i| bits_get(bits, i)) {
                return Err(format!("a downset names a node at or past {n}"));
            }
            Ok(bits_count(bits))
        };
        let known: Vec<BTreeSet<&[u64]>> = self
            .levels
            .iter()
            .map(|level| level.iter().map(|e| e.downset.as_slice()).collect())
            .collect();
        for (size, level) in self.levels.iter().enumerate() {
            for entry in level {
                let at = |e: String| format!("enumeration level {size}: {e}");
                if downset(&entry.downset).map_err(at)? != size {
                    return Err(at("a downset of another size".to_string()));
                }
                if !entry.cost.is_finite() {
                    return Err(at(format!("a downset costs {}", entry.cost)));
                }
                let Some((parent, members)) = &entry.back else {
                    continue;
                };
                let parent_size = downset(parent).map_err(at)?;
                if !known[parent_size].contains(parent.as_slice()) {
                    return Err(at(
                        "a back-pointer to a downset not in the table".to_string()
                    ));
                }
                let mut grown = parent.clone();
                for &m in members {
                    if m as usize >= n {
                        return Err(at(format!("back-pointer member {m} is not below {n}")));
                    }
                    if bits_get(&grown, m as usize) {
                        return Err(at(format!("back-pointer member {m} is already computed")));
                    }
                    bits_set(&mut grown, m as usize);
                }
                if members.is_empty() || grown != entry.downset {
                    return Err(at(
                        "a back-pointer whose members do not extend its parent to the downset"
                            .to_string(),
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The exact enumeration baseline as a step-driven state machine.
/// Deterministic, fixed hardware only.
///
/// Each step expands every state of one popcount level (states processed
/// in sorted downset order, so the run — including abort boundaries and
/// equal-cost tie-breaks — is deterministic across processes); the final
/// step reconstructs the optimal execution chain. Analytic: no step
/// consumes budget.
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
///     BufferSpace::fixed(BufferConfig::shared(8 << 20)),
///     Objective::partition_only(CostMetric::Ema),
///     0,
/// );
/// let outcome = SearchMethod::exhaustive().run(&ctx);
/// assert!(outcome.completed);
/// assert_eq!(outcome.best.unwrap().partition.num_subgraphs(), 1);
/// ```
#[derive(Debug)]
pub struct ExhaustiveDriver {
    limits: ExhaustiveLimits,
    levels: Vec<HashMap<Bits, StateInfo>>,
    /// Next level to expand (`levels` empty ⇒ not yet initialized).
    level: usize,
    total_states: usize,
    expansions: u64,
    done: bool,
    outcome: SearchOutcome,
}

impl std::fmt::Debug for StateInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateInfo")
            .field("cost", &self.cost)
            .finish()
    }
}

impl ExhaustiveDriver {
    /// A fresh driver under `limits`.
    pub fn new(limits: ExhaustiveLimits) -> Self {
        Self {
            limits,
            levels: Vec::new(),
            level: 0,
            total_states: 1,
            expansions: 0,
            done: false,
            outcome: SearchOutcome::empty(),
        }
    }

    /// Resumes a driver from a serialized state.
    pub fn from_state(limits: ExhaustiveLimits, state: ExhaustiveState) -> Self {
        Self {
            limits,
            levels: state
                .levels
                .into_iter()
                .map(|entries| {
                    entries
                        .into_iter()
                        .map(|e| {
                            (
                                e.downset.into_boxed_slice(),
                                StateInfo {
                                    cost: e.cost,
                                    back: e
                                        .back
                                        .map(|(p, members)| (p.into_boxed_slice(), members)),
                                },
                            )
                        })
                        .collect()
                })
                .collect(),
            level: state.level as usize,
            total_states: state.total_states as usize,
            expansions: state.expansions,
            done: state.done,
            outcome: state.outcome,
        }
    }

    /// Finalizes after an abort or a completed sweep.
    fn finalize(&mut self, ctx: &SearchContext<'_>, aborted: bool) -> Step {
        let graph = ctx.graph();
        let buffer = ctx.space.baseline_buffer();
        let n = graph.len();
        let words = n.div_ceil(64);
        self.done = true;
        self.outcome.completed = !aborted;
        if aborted {
            return Step::Done;
        }
        // Reconstruct the optimal chain from the full downset.
        let full: Bits = {
            let mut b = bits_new(words);
            for i in 0..n {
                bits_set(&mut b, i);
            }
            b
        };
        if !self.levels[n].contains_key(&full) {
            return Step::Done; // nothing fits at all
        }
        let mut assignment = vec![0u32; n];
        let mut cursor = full;
        let mut sg = 0u32;
        loop {
            let level = bits_count(&cursor);
            let info = &self.levels[level][&cursor];
            match &info.back {
                Some((parent, members)) => {
                    for &m in members {
                        assignment[m as usize] = sg;
                    }
                    sg += 1;
                    cursor = parent.clone();
                }
                None => break,
            }
        }
        let mut partition = Partition::from_assignment(assignment);
        partition.canonicalize(graph);
        let cost = ctx.partition_cost(&partition, &buffer);
        self.outcome.consider(&Genome::new(partition, buffer), cost);
        Step::Done
    }
}

impl SearchDriver for ExhaustiveDriver {
    fn name(&self) -> &'static str {
        "Enumeration"
    }

    fn next_batch(&mut self, ctx: &SearchContext<'_>) -> Step {
        if self.done {
            return Step::Done;
        }
        let graph = ctx.graph();
        let buffer = ctx.space.baseline_buffer();
        let n = graph.len();
        let words = n.div_ceil(64);
        if self.levels.is_empty() {
            // DP over downsets, processed by popcount level.
            self.levels = (0..=n).map(|_| HashMap::new()).collect();
            self.levels[0].insert(
                bits_new(words),
                StateInfo {
                    cost: 0.0,
                    back: None,
                },
            );
            return Step::Continue;
        }
        if self.level >= n {
            return self.finalize(ctx, false);
        }

        // Per-step precomputation (cheap relative to a level's expansion
        // work, and keeps snapshots small): weight-capacity bound for
        // monotone pruning, and undirected adjacency for connectivity.
        let wgt_cap = match buffer {
            BufferConfig::Separate { wgt, .. } => wgt,
            BufferConfig::Shared { total } => total,
        };
        let elem = ctx.evaluator().config().elem_bytes;
        let node_wgt: Vec<u64> = graph
            .node_ids()
            .map(|id| graph.weight_elements(id) * elem)
            .collect();
        let neighbors: Vec<Vec<u32>> = graph
            .node_ids()
            .map(|id| {
                let mut v: Vec<u32> = graph
                    .producers(id)
                    .iter()
                    .chain(graph.consumers(id).iter())
                    .map(|x| x.index() as u32)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            })
            .collect();

        let level = self.level;
        self.level += 1;
        if self.levels[level].is_empty() {
            return Step::Continue;
        }
        // Sorted-state iteration: processing order (and with it abort
        // boundaries and equal-cost tie-breaks) must not depend on the
        // hash map's per-process iteration order.
        let mut states: Vec<(Bits, f64)> = self.levels[level]
            .iter()
            .map(|(k, v)| (k.clone(), v.cost))
            .collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        let mut aborted = false;
        'states: for (downset, base_cost) in states {
            // Ready nodes: not computed, all producers computed.
            let ready: Vec<u32> = (0..n as u32)
                .filter(|&v| {
                    !bits_get(&downset, v as usize)
                        && graph
                            .producers(NodeId::from_index(v as usize))
                            .iter()
                            .all(|p| bits_get(&downset, p.index()))
                })
                .collect();
            for &start in &ready {
                let mut enumerator = SubgraphEnumerator {
                    graph,
                    ctx,
                    buffer: &buffer,
                    neighbors: &neighbors,
                    node_wgt: &node_wgt,
                    wgt_cap,
                    downset: &downset,
                    start,
                    expansions: &mut self.expansions,
                    limit: self.limits.max_expansions,
                    emitted: Vec::new(),
                };
                enumerator.enumerate();
                let emitted = std::mem::take(&mut enumerator.emitted);
                drop(enumerator);
                if self.expansions >= self.limits.max_expansions {
                    aborted = true;
                    break 'states;
                }
                for (members, cost) in emitted {
                    let mut next = downset.clone();
                    for &m in &members {
                        bits_set(&mut next, m as usize);
                    }
                    let next_level = bits_count(&next);
                    let new_cost = base_cost + cost;
                    let entry = self.levels[next_level].entry(next);
                    match entry {
                        std::collections::hash_map::Entry::Occupied(mut o) => {
                            if new_cost < o.get().cost {
                                o.insert(StateInfo {
                                    cost: new_cost,
                                    back: Some((downset.clone(), members)),
                                });
                            }
                        }
                        std::collections::hash_map::Entry::Vacant(v) => {
                            self.total_states += 1;
                            v.insert(StateInfo {
                                cost: new_cost,
                                back: Some((downset.clone(), members)),
                            });
                        }
                    }
                    if self.total_states > self.limits.max_states {
                        aborted = true;
                        break 'states;
                    }
                }
            }
        }
        if aborted {
            return self.finalize(ctx, true);
        }
        Step::Continue
    }

    fn absorb(&mut self, _ctx: &SearchContext<'_>, _batch: EvalBatch) {}

    fn outcome(&self) -> SearchOutcome {
        self.outcome.clone()
    }

    fn state(&self) -> DriverState {
        let levels: Vec<Vec<ExhaustiveEntry>> = self
            .levels
            .iter()
            .map(|level| {
                let mut entries: Vec<ExhaustiveEntry> = level
                    .iter()
                    .map(|(downset, info)| ExhaustiveEntry {
                        downset: downset.to_vec(),
                        cost: info.cost,
                        back: info
                            .back
                            .as_ref()
                            .map(|(p, members)| (p.to_vec(), members.clone())),
                    })
                    .collect();
                entries.sort_by(|a, b| a.downset.cmp(&b.downset));
                entries
            })
            .collect();
        DriverState::Exhaustive(ExhaustiveState {
            levels,
            level: self.level as u64,
            total_states: self.total_states as u64,
            expansions: self.expansions,
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

/// Enumerates every connected, predecessor-closed, fitting subset of the
/// uncomputed region whose minimal element is `start`, exactly once
/// (ascending-start + excluded-sibling scheme).
struct SubgraphEnumerator<'e, 'a> {
    graph: &'e Graph,
    ctx: &'e SearchContext<'a>,
    buffer: &'e BufferConfig,
    neighbors: &'e [Vec<u32>],
    node_wgt: &'e [u64],
    wgt_cap: u64,
    downset: &'e [u64],
    start: u32,
    expansions: &'e mut u64,
    limit: u64,
    emitted: Vec<(Vec<u32>, f64)>,
}

impl SubgraphEnumerator<'_, '_> {
    fn enumerate(&mut self) {
        let n = self.graph.len();
        let words = n.div_ceil(64);
        let mut in_s = bits_new(words);
        bits_set(&mut in_s, self.start as usize);
        let mut missing = bits_new(words); // preds of S outside downset ∪ S
        for p in self
            .graph
            .producers(NodeId::from_index(self.start as usize))
        {
            if !bits_get(self.downset, p.index()) {
                bits_set(&mut missing, p.index());
            }
        }
        let excluded = bits_new(words);
        let wgt = self.node_wgt[self.start as usize];
        self.extend(
            &mut vec![self.start],
            &mut in_s,
            &mut missing,
            excluded,
            wgt,
        );
    }

    /// `true` if some missing predecessor can never be added in this branch
    /// (it is excluded or below the start), making the branch dead.
    fn branch_dead(&self, missing: &[u64], excluded: &[u64]) -> bool {
        for w in 0..missing.len() {
            let dead = missing[w] & excluded[w];
            if dead != 0 {
                return true;
            }
        }
        // Any missing pred below start is unreachable by construction.
        for i in 0..self.start as usize {
            if bits_get(missing, i) {
                return true;
            }
        }
        false
    }

    fn extend(
        &mut self,
        members: &mut Vec<u32>,
        in_s: &mut Bits,
        missing: &mut Bits,
        mut excluded: Bits,
        wgt: u64,
    ) {
        *self.expansions += 1;
        if *self.expansions >= self.limit {
            return;
        }
        if self.branch_dead(missing, &excluded) {
            return;
        }
        // Emit when predecessor-closed and fitting.
        if bits_count(missing) == 0 {
            let ids: Vec<NodeId> = members
                .iter()
                .map(|&m| NodeId::from_index(m as usize))
                .collect();
            if let Some(cost) = self.ctx.subgraph_cost(&ids, self.buffer) {
                let mut sorted = members.clone();
                sorted.sort_unstable();
                self.emitted.push((sorted, cost));
            }
        }
        // Expansion candidates: neighbors of S, uncomputed, not in S, not
        // excluded, above the start.
        let mut candidates: Vec<u32> = Vec::new();
        for &m in members.iter() {
            for &c in &self.neighbors[m as usize] {
                if c > self.start
                    && !bits_get(self.downset, c as usize)
                    && !bits_get(in_s, c as usize)
                    && !bits_get(&excluded, c as usize)
                {
                    candidates.push(c);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        for c in candidates {
            let new_wgt = wgt + self.node_wgt[c as usize];
            if new_wgt <= self.wgt_cap {
                // Recurse with c added, then restore all bookkeeping.
                let was_missing = bits_get(missing, c as usize);
                bits_set(in_s, c as usize);
                bits_clear(missing, c as usize);
                let mut added_missing: Vec<usize> = Vec::new();
                for p in self.graph.producers(NodeId::from_index(c as usize)) {
                    if !bits_get(self.downset, p.index())
                        && !bits_get(in_s, p.index())
                        && !bits_get(missing, p.index())
                    {
                        bits_set(missing, p.index());
                        added_missing.push(p.index());
                    }
                }
                members.push(c);
                self.extend(members, in_s, missing, excluded.clone(), new_wgt);
                members.pop();
                bits_clear(in_s, c as usize);
                for p in added_missing {
                    bits_clear(missing, p);
                }
                if was_missing {
                    bits_set(missing, c as usize);
                }
            }
            // Exclude c from subsequent sibling branches.
            bits_set(&mut excluded, c as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use crate::SearchMethod;
    use cocco_sim::{AcceleratorConfig, CostMetric, Evaluator};

    fn run_on(graph: &Graph, buffer: BufferConfig) -> SearchOutcome {
        let eval = Evaluator::new(graph, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            graph,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        SearchMethod::exhaustive().run(&ctx)
    }

    #[test]
    fn optimal_on_chain() {
        let g = cocco_graph::models::chain(5);
        let out = run_on(&g, BufferConfig::shared(8 << 20));
        assert!(out.completed);
        let floor = g.total_weight_elements()
            + g.out_elements(g.input_ids()[0])
            + g.out_elements(g.output_ids()[0]);
        assert_eq!(out.best_cost, floor as f64);
    }

    #[test]
    fn optimal_on_diamond_beats_or_matches_everything() {
        let g = cocco_graph::models::diamond();
        let buffer = BufferConfig::shared(64 << 10);
        let out = run_on(&g, buffer);
        assert!(out.completed);
        // Compare against brute force over a few handmade partitions.
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        for assignment in [
            vec![0, 1, 2, 3, 4],
            vec![0, 0, 1, 1, 1],
            vec![0, 0, 0, 0, 0],
            vec![0, 0, 1, 2, 3],
        ] {
            let p = Partition::from_assignment(assignment);
            if p.validate(&g).is_err() {
                continue;
            }
            let cost = ctx.partition_cost(&p, &buffer);
            assert!(
                out.best_cost <= cost + 1e-9,
                "enumeration missed a better partition: {} > {}",
                out.best_cost,
                cost
            );
        }
    }

    #[test]
    fn result_is_valid() {
        let g = cocco_graph::models::diamond();
        let out = run_on(&g, BufferConfig::shared(128 << 10));
        let best = out.best.unwrap();
        assert!(best.partition.validate(&g).is_ok());
    }

    #[test]
    fn budget_abort_reports_incomplete() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::separate(1 << 20, 1152 << 10)),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        let out = SearchMethod::Exhaustive(ExhaustiveLimits {
            max_states: 10,
            max_expansions: 1_000,
        })
        .run(&ctx);
        assert!(!out.completed);
        assert!(out.best.is_none());
    }

    #[test]
    fn tiny_buffer_forces_singletons() {
        let g = cocco_graph::models::chain(3);
        // Just big enough for single layers.
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let single = eval
            .subgraph_stats(&[g.node_ids().nth(1).unwrap()])
            .unwrap();
        let cap = single.act_footprint_bytes + single.wgt_resident_bytes + 4096;
        let out = run_on(&g, BufferConfig::shared(cap));
        if let Some(best) = out.best {
            // Every subgraph fits the tiny buffer.
            for members in best.partition.subgraphs() {
                let stats = eval.subgraph_stats(&members).unwrap();
                assert!(stats.act_footprint_bytes + stats.wgt_resident_bytes <= cap);
            }
        }
    }
}
