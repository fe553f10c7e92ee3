//! Halide-style greedy fusion baseline (paper §4.2.2).
//!
//! The driver keeps its working state between steps: the live groups with
//! their members, fingerprints and terms, the quotient over them as
//! ascending adjacency lists whose edges carry the term of the merge across
//! them, a topological order of the groups, and the mergeable edges ordered
//! by benefit. A merge edits only the two groups it consumes, their
//! neighbours and the groups ordered between them, so a step derives terms
//! only for the edges the previous merge created and tests legality only
//! for the edges it consults.

use crate::context::SearchContext;
use crate::driver::{DriverState, EvalBatch, SearchDriver, Step};
use crate::genome::Genome;
use crate::outcome::SearchOutcome;
use cocco_graph::{Graph, NodeId, NodeSetFp};
use cocco_partition::{Partition, Quotient};
use cocco_sim::BufferConfig;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Serializable state of a [`GreedyDriver`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GreedyState {
    /// Current assignment (`None` until the first step ran).
    assignment: Option<Vec<u32>>,
    done: bool,
    outcome: SearchOutcome,
}

impl GreedyState {
    /// Checks the state against the graph it resumes on: while running, the
    /// current assignment (the driver rebuilds its quotient from it) must
    /// be a valid partition of the graph, and so must a best design.
    pub(crate) fn check(&self, graph: &Graph) -> Result<(), String> {
        if let (false, Some(assignment)) = (self.done, &self.assignment) {
            Partition::from_assignment(assignment.clone())
                .validate(graph)
                .map_err(|e| format!("greedy assignment is not a partition of the graph: {e}"))?;
        }
        if let Some(best) = &self.outcome.best {
            best.partition
                .validate(graph)
                .map_err(|e| format!("greedy best design is not a partition of the graph: {e}"))?;
        }
        Ok(())
    }
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
/// merge with the greatest benefit (the first maximum of a scan over every
/// legal quotient edge in ascending (source label, target label) order);
/// the final step scores the converged partition. Analytic: no step
/// consumes budget.
///
/// A step pays only for what the previous merge changed. The driver keeps,
/// per live group, its ascending members, their [`NodeSetFp`] and the
/// group's cost term, and the quotient as ascending successor and
/// predecessor lists; each edge stores the term of the merge across it
/// once derived. Merging `b` into `a` merges the member lists, splices
/// `b`'s adjacency into `a`'s, re-points `b`'s neighbours at `a`, and
/// forgets only the edge terms incident to `a` or `b` — the merged pair's
/// term becomes the group's. Every other term stays, so a step derives
/// terms only for the new group's edges.
///
/// Merging across `a → b` would close a cycle iff another path `a ⇝ b`
/// exists. The driver keeps a topological order of the groups, so such a
/// path only visits groups ordered between `a` and `b`, and a bounded
/// search answers for one edge. A merge repairs the order locally
/// (Pearce–Kelly): only groups ordered between the merged pair move. It
/// tests only the edges a step consults: the new group's edges before
/// their terms are derived, and the best candidates, popped in benefit
/// order until one is legal. An edge a merge does not touch can only lose
/// legality — any path `x ⇝ y` that avoided it still exists, through the
/// merged group — so a candidate found illegal is dropped until a merge
/// touches it and re-derives it.
///
/// Nothing of this is serialized: [`GreedyState`] holds the assignment,
/// and a resumed driver rebuilds the structure from it on its first step.
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
    /// The assignment a resumed driver continues from, until its first
    /// step builds the kept state from it.
    resumed: Option<Partition>,
    /// The kept state: `None` before the first step and once done.
    fusion: Option<Fusion>,
    outcome: SearchOutcome,
    done: bool,
}

impl Default for GreedyDriver {
    /// A fresh driver, starting from one subgraph per layer.
    fn default() -> Self {
        Self {
            resumed: None,
            fusion: None,
            outcome: SearchOutcome::empty(),
            done: false,
        }
    }
}

impl GreedyDriver {
    /// Resumes a driver from a serialized state.
    pub fn from_state(state: GreedyState) -> Self {
        Self {
            resumed: state.assignment.map(Partition::from_assignment),
            fusion: None,
            outcome: state.outcome,
            done: state.done,
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
        let mut fusion = match self.fusion.take() {
            Some(fusion) => fusion,
            None => {
                let start = self
                    .resumed
                    .take()
                    .unwrap_or_else(|| Partition::singletons(graph.len()));
                let mut fusion = Fusion::new(graph, start);
                fusion.derive_all(ctx, &buffer);
                fusion
            }
        };
        match fusion.best_merge(ctx, &buffer) {
            Some((a, b)) => {
                fusion.merge(a, b);
                self.fusion = Some(fusion);
                Step::Continue
            }
            None => {
                // Converged: score the result.
                let mut partition = fusion.partition;
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
        let partition = match &self.fusion {
            Some(fusion) => Some(&fusion.partition),
            None => self.resumed.as_ref(),
        };
        DriverState::Greedy(GreedyState {
            assignment: partition.map(|p| p.assignment().to_vec()),
            done: self.done,
            outcome: self.outcome.clone(),
        })
    }
}

/// What costing one member set under the baseline buffer gave.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Term {
    /// The subgraph fits, with this additive cost.
    Cost(f64),
    /// The subgraph does not fit.
    TooBig,
    /// The evaluator rejected the member set.
    Error,
}

impl Term {
    /// Derives the term of the ascending member set `members` (fingerprint
    /// `fp`). An evaluator error is not recorded here: every step records
    /// one per live group and per legal edge with an error term, exactly
    /// as an unmemoized [`SearchContext::subgraph_cost`] call per lookup
    /// would.
    fn derive(
        ctx: &SearchContext<'_>,
        buffer: &BufferConfig,
        fp: NodeSetFp,
        members: &[NodeId],
    ) -> Self {
        match ctx.subgraph_term(fp, members, buffer) {
            Ok(Some(cost)) => Term::Cost(cost),
            Ok(None) => Term::TooBig,
            Err(_) => Term::Error,
        }
    }
}

/// A quotient edge, with the term of the merge across it once derived.
#[derive(Clone, Copy, Debug)]
struct Edge {
    to: u32,
    term: Option<Term>,
}

/// One group of the kept quotient. A group merged away is left empty.
#[derive(Debug, Default)]
struct Group {
    /// Members, ascending (topologically ordered).
    members: Vec<NodeId>,
    fp: NodeSetFp,
    /// The group's own term, once derived.
    term: Option<Term>,
    /// Successor groups, ascending.
    succs: Vec<Edge>,
    /// Predecessor groups, ascending.
    preds: Vec<u32>,
}

impl Group {
    #[cfg(test)]
    fn is_live(&self) -> bool {
        !self.members.is_empty()
    }

    /// The group's additive cost; infinity when it cannot fit.
    fn cost(&self) -> f64 {
        match self.term {
            Some(Term::Cost(cost)) => cost,
            _ => f64::INFINITY,
        }
    }
}

/// A mergeable edge `(a, b)` in the candidate order: benefit descending
/// (the bits of a positive `f64` ascend with its value), then source and
/// target slot ascending — the scan's first maximum comes first.
type Candidate = (Reverse<u64>, u32, u32);

/// The working state greedy fusion keeps between steps.
#[derive(Debug)]
struct Fusion {
    /// The current assignment; a merge relabels the consumed group's
    /// members with the surviving group's label.
    partition: Partition,
    /// One slot per group of the partition the state was built from, in
    /// ascending label order. A merge keeps the first group's slot and
    /// label, so slot order stays label order.
    groups: Vec<Group>,
    /// Per slot: the live group's position in a topological order of the
    /// quotient. A merge frees one position, so positions need not be
    /// contiguous; a merged-away slot's is stale.
    pos: Vec<u32>,
    /// The edges with a `Cost` term and a positive benefit, best first.
    /// An edge found illegal leaves the set until a merge touches it: it
    /// cannot become legal before that.
    candidates: BTreeSet<Candidate>,
    /// How many live groups have an `Error` term.
    error_groups: u64,
    /// The edges with an `Error` term, each legal when last tested.
    error_edges: Vec<(u32, u32)>,
    /// The group the last merge made, whose edges have no terms yet.
    fresh: Option<u32>,
    walk: Walk,
    /// Scratch for a merged member list.
    merged: Vec<NodeId>,
}

impl Fusion {
    /// Builds the state of `partition`, a valid partition of `graph`, with
    /// no term derived yet. A cyclic quotient (no valid partition has one)
    /// keeps no edges, so nothing merges.
    fn new(graph: &Graph, partition: Partition) -> Self {
        let quotient = Quotient::build(graph, &partition);
        let order = quotient.topo_order().unwrap_or_default();
        let acyclic = order.len() == quotient.num_subgraphs();
        let mut groups: Vec<Group> = (0..quotient.num_subgraphs() as u32)
            .map(|c| Group {
                succs: quotient
                    .succs(c)
                    .iter()
                    .map(|&to| Edge { to, term: None })
                    .collect(),
                preds: quotient.preds(c).to_vec(),
                ..Group::default()
            })
            .collect();
        if !acyclic {
            for group in &mut groups {
                group.succs.clear();
                group.preds.clear();
            }
        }
        for (node, &label) in partition.assignment().iter().enumerate() {
            let group = &mut groups[quotient.compact_id(label) as usize];
            let node = NodeId::from_index(node);
            group.members.push(node);
            group.fp.insert(node);
        }
        let mut pos = vec![0; groups.len()];
        for (p, &v) in order.iter().enumerate() {
            pos[v as usize] = p as u32;
        }
        Self {
            partition,
            groups,
            pos,
            candidates: BTreeSet::new(),
            error_groups: 0,
            error_edges: Vec::new(),
            fresh: None,
            walk: Walk::default(),
            merged: Vec::new(),
        }
    }

    /// Derives every term of a state [`new`](Self::new) built: the groups
    /// in slot order, then the legal edges in scan order.
    fn derive_all(&mut self, ctx: &SearchContext<'_>, buffer: &BufferConfig) {
        for group in &mut self.groups {
            let term = Term::derive(ctx, buffer, group.fp, &group.members);
            group.term = Some(term);
            self.error_groups += u64::from(term == Term::Error);
        }
        for a in 0..self.groups.len() as u32 {
            for i in 0..self.groups[a as usize].succs.len() {
                let b = self.groups[a as usize].succs[i].to;
                self.derive_edge(ctx, buffer, a, b);
            }
        }
    }

    /// The legal, fitting merge `(a, b)` across edge `a → b` with the
    /// greatest positive benefit, first in edge order on ties. First
    /// derives the terms of the last merge's legal edges in scan order,
    /// then records an infeasible error for every rejected group and every
    /// rejected legal edge.
    fn best_merge(&mut self, ctx: &SearchContext<'_>, buffer: &BufferConfig) -> Option<(u32, u32)> {
        if let Some(v) = self.fresh.take() {
            // Scan order: (p, v) for predecessors p < v, then (v, s), then
            // (p, v) for p > v.
            let split = self.groups[v as usize].preds.partition_point(|&p| p < v);
            for i in 0..split {
                let p = self.groups[v as usize].preds[i];
                self.derive_edge(ctx, buffer, p, v);
            }
            for i in 0..self.groups[v as usize].succs.len() {
                let s = self.groups[v as usize].succs[i].to;
                self.derive_edge(ctx, buffer, v, s);
            }
            for i in split..self.groups[v as usize].preds.len() {
                let p = self.groups[v as usize].preds[i];
                self.derive_edge(ctx, buffer, p, v);
            }
        }
        let mut errors = self.error_groups;
        let mut i = 0;
        while let Some(&(a, b)) = self.error_edges.get(i) {
            if self.is_legal(a, b) {
                errors += 1;
                i += 1;
            } else {
                self.error_edges.swap_remove(i);
            }
        }
        ctx.trace().add_infeasible_errors(errors);
        while let Some(&(_, a, b)) = self.candidates.first() {
            if self.is_legal(a, b) {
                return Some((a, b));
            }
            self.candidates.pop_first();
        }
        None
    }

    /// Derives the term of the merge across edge `a → b` if it is legal,
    /// and files the edge by its term. An illegal edge keeps no term: it
    /// can only become legal through a merge that touches it.
    fn derive_edge(&mut self, ctx: &SearchContext<'_>, buffer: &BufferConfig, a: u32, b: u32) {
        if !self.is_legal(a, b) {
            return;
        }
        let (group_a, group_b) = (&self.groups[a as usize], &self.groups[b as usize]);
        merge_ascending(&mut self.merged, &group_a.members, &group_b.members);
        let fp = group_a.fp.disjoint_union(group_b.fp);
        let term = Term::derive(ctx, buffer, fp, &self.merged);
        if let Ok(i) = group_a.succs.binary_search_by_key(&b, |e| e.to) {
            self.groups[a as usize].succs[i].term = Some(term);
        }
        match term {
            Term::Cost(_) => self.candidates.extend(self.candidate(a, b, Some(term))),
            Term::Error => self.error_edges.push((a, b)),
            Term::TooBig => {}
        }
    }

    /// The candidate key of edge `a → b` with `term`: `None` unless the
    /// term is a cost and the merge's benefit is positive.
    fn candidate(&self, a: u32, b: u32, term: Option<Term>) -> Option<Candidate> {
        let Some(Term::Cost(merged_cost)) = term else {
            return None;
        };
        let benefit = self.groups[a as usize].cost() + self.groups[b as usize].cost() - merged_cost;
        (benefit > 0.0).then_some((Reverse(benefit.to_bits()), a, b))
    }

    /// Whether merging across the edge `a → b` keeps the quotient acyclic.
    fn is_legal(&mut self, a: u32, b: u32) -> bool {
        let legal = !self.walk.other_path(&self.groups, &self.pos, a, b);
        #[cfg(test)]
        tests::VERDICTS.with(|v| v.borrow_mut().push((a, b, legal)));
        legal
    }

    /// Merges group `b` into group `a` across the legal edge `a → b`: the
    /// edge's term becomes the group's, and every edge of the merged group
    /// loses its term (its merged set changed) until the next step derives
    /// it again.
    fn merge(&mut self, a: u32, b: u32) {
        for v in [a, b] {
            let group = &self.groups[v as usize];
            for e in &group.succs {
                if let Some(key) = self.candidate(v, e.to, e.term) {
                    self.candidates.remove(&key);
                }
            }
            for &p in &group.preds {
                let succs = &self.groups[p as usize].succs;
                let term = succs
                    .binary_search_by_key(&v, |e| e.to)
                    .ok()
                    .and_then(|i| succs[i].term);
                if let Some(key) = self.candidate(p, v, term) {
                    self.candidates.remove(&key);
                }
            }
            self.error_groups -= u64::from(group.term == Some(Term::Error));
        }
        self.error_edges
            .retain(|&(x, y)| x != a && x != b && y != a && y != b);
        self.reorder(a, b);
        let gone = std::mem::take(&mut self.groups[b as usize]);
        let group = &mut self.groups[a as usize];
        let label = self.partition.subgraph_of(group.members[0]);
        for &m in &gone.members {
            self.partition.assign(m, label);
        }
        merge_ascending(&mut self.merged, &group.members, &gone.members);
        std::mem::swap(&mut group.members, &mut self.merged);
        group.fp = group.fp.disjoint_union(gone.fp);
        group.term = group
            .succs
            .binary_search_by_key(&b, |e| e.to)
            .ok()
            .and_then(|i| group.succs[i].term);
        group.succs.retain(|e| e.to != b);
        group.succs.extend_from_slice(&gone.succs);
        group.succs.sort_unstable_by_key(|e| e.to);
        group.succs.dedup_by_key(|e| e.to);
        for edge in &mut group.succs {
            edge.term = None;
        }
        group.preds.extend(gone.preds.iter().filter(|&&p| p != a));
        group.preds.sort_unstable();
        group.preds.dedup();
        // Re-point the neighbours at `a`, forgetting their edge terms.
        for i in 0..self.groups[a as usize].succs.len() {
            let s = self.groups[a as usize].succs[i].to;
            let preds = &mut self.groups[s as usize].preds;
            if let Ok(j) = preds.binary_search(&b) {
                preds.remove(j);
            }
            if let Err(j) = preds.binary_search(&a) {
                preds.insert(j, a);
            }
        }
        for i in 0..self.groups[a as usize].preds.len() {
            let p = self.groups[a as usize].preds[i];
            let succs = &mut self.groups[p as usize].succs;
            if let Ok(j) = succs.binary_search_by_key(&b, |e| e.to) {
                succs.remove(j);
            }
            match succs.binary_search_by_key(&a, |e| e.to) {
                Ok(j) => succs[j].term = None,
                Err(j) => succs.insert(j, Edge { to: a, term: None }),
            }
        }
        self.fresh = Some(a);
    }

    /// Repairs the topological order for merging `b` into `a` across the
    /// legal edge `a → b` (Pearce–Kelly). Of the groups ordered between
    /// the pair, `b`'s ancestors must precede the merged group and `a`'s
    /// descendants follow it; legality keeps the two sets apart. Together
    /// with `a` and `b` they hand out their positions again, ascending:
    /// the ancestors first, then the merged group, the descendants last.
    /// Ancestors only move to earlier positions and descendants only to
    /// later ones, so every edge to or from a group that keeps its
    /// position still points forward.
    fn reorder(&mut self, a: u32, b: u32) {
        let walk = &mut self.walk;
        let met = walk.other_path(&self.groups, &self.pos, b, a);
        debug_assert!(!met, "merge across the illegal edge {a} -> {b}");
        std::mem::swap(&mut walk.found, &mut walk.ancestors);
        let met = walk.other_path(&self.groups, &self.pos, a, b);
        debug_assert!(!met, "merge across the illegal edge {a} -> {b}");
        let Walk {
            found: descendants,
            ancestors,
            slots,
            ..
        } = walk;
        let pos = &mut self.pos;
        ancestors.sort_unstable_by_key(|&v| pos[v as usize]);
        descendants.sort_unstable_by_key(|&v| pos[v as usize]);
        slots.clear();
        slots.extend(
            ancestors
                .iter()
                .chain(descendants.iter())
                .chain(&[a, b])
                .map(|&v| pos[v as usize]),
        );
        slots.sort_unstable();
        for (&v, &p) in ancestors.iter().zip(slots.iter()) {
            pos[v as usize] = p;
        }
        pos[a as usize] = slots[ancestors.len()];
        for (&v, &p) in descendants.iter().rev().zip(slots.iter().rev()) {
            pos[v as usize] = p;
        }
    }
}

/// Merges the ascending, disjoint member lists `a` and `b` into `out`.
fn merge_ascending(out: &mut Vec<NodeId>, a: &[NodeId], b: &[NodeId]) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if a[i] < b[j] {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Bounded searches over the kept quotient, with reused buffers.
#[derive(Debug, Default)]
struct Walk {
    /// Per slot: the number of the search that last visited it.
    seen: Vec<u32>,
    /// The number of the current search.
    search: u32,
    stack: Vec<u32>,
    /// The groups the last search visited.
    found: Vec<u32>,
    /// Scratch for the ancestors a reorder moves.
    ancestors: Vec<u32>,
    /// Scratch for the positions a reorder hands out.
    slots: Vec<u32>,
}

impl Walk {
    /// Whether a path other than a direct edge joins `from` and `to`:
    /// forward along successors when `from` precedes `to` in the order
    /// `pos`, backward along predecessors otherwise. Such a path only
    /// visits groups ordered strictly between the two, so the search
    /// visits only those, collecting them in `found`.
    fn other_path(&mut self, groups: &[Group], pos: &[u32], from: u32, to: u32) -> bool {
        self.search = self.search.wrapping_add(1);
        if self.search == 0 {
            self.seen.fill(0);
            self.search = 1;
        }
        self.seen.resize(groups.len(), 0);
        let (from_pos, to_pos) = (pos[from as usize], pos[to as usize]);
        let forward = from_pos < to_pos;
        let (lo, hi) = (from_pos.min(to_pos), from_pos.max(to_pos));
        self.found.clear();
        self.stack.clear();
        self.stack.push(from);
        while let Some(v) = self.stack.pop() {
            let group = &groups[v as usize];
            let (succs, preds): (&[Edge], &[u32]) = if forward {
                (&group.succs, &[])
            } else {
                (&[], &group.preds)
            };
            for n in succs.iter().map(|e| e.to).chain(preds.iter().copied()) {
                if n == to {
                    if v == from {
                        continue;
                    }
                    return true;
                }
                let p = pos[n as usize];
                if lo < p && p < hi && self.seen[n as usize] != self.search {
                    self.seen[n as usize] = self.search;
                    self.stack.push(n);
                    self.found.push(n);
                }
            }
        }
        false
    }
}

/// The reference step the kept-state driver is checked against, step by
/// step: it re-derives the groups, their fingerprints and the quotient
/// from the assignment on every merge, and looks every term up in a
/// fingerprint-keyed memo that drops the entries a merge makes stale.
#[cfg(test)]
mod reference {
    use super::Term;
    use crate::context::SearchContext;
    use crate::driver::Step;
    use crate::genome::Genome;
    use crate::outcome::SearchOutcome;
    use cocco_graph::{BuildFpHasher, NodeId, NodeSetFp};
    use cocco_partition::{Partition, Quotient};
    use cocco_sim::BufferConfig;
    use std::collections::HashMap;

    /// The reference driver: the assignment, the memo and the outcome.
    #[derive(Debug)]
    pub(super) struct ReferenceGreedy {
        pub(super) partition: Option<Partition>,
        pub(super) outcome: SearchOutcome,
        done: bool,
        costs: CostMemo,
    }

    impl ReferenceGreedy {
        pub(super) fn new() -> Self {
            Self {
                partition: None,
                outcome: SearchOutcome::empty(),
                done: false,
                costs: CostMemo::default(),
            }
        }

        /// One step: apply the best merge, or score the converged result.
        pub(super) fn step(&mut self, ctx: &SearchContext<'_>) -> Step {
            if self.done {
                return Step::Done;
            }
            let graph = ctx.graph();
            let buffer = ctx.space.baseline_buffer();
            let mut partition = self
                .partition
                .take()
                .unwrap_or_else(|| Partition::singletons(graph.len()));
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
            let mut best: Option<(f64, u32, u32)> = None;
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
                        continue;
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
                    let target = partition.subgraph_of(groups[a as usize][0]);
                    for &m in &groups[b as usize] {
                        partition.assign(m, target);
                    }
                    self.partition = Some(partition);
                    Step::Continue
                }
                None => {
                    partition.canonicalize(graph);
                    let cost = ctx.partition_cost(&partition, &buffer);
                    self.outcome.consider(&Genome::new(partition, buffer), cost);
                    self.done = true;
                    Step::Done
                }
            }
        }
    }

    /// Member-set terms keyed by fingerprint: the live groups and the
    /// merges across live quotient edges.
    #[derive(Debug, Default)]
    struct CostMemo {
        terms: HashMap<NodeSetFp, Term, BuildFpHasher>,
        merged: Vec<NodeId>,
    }

    impl CostMemo {
        /// The cost of `a ∪ b` (fingerprint `fp`; `b` empty for a lone
        /// group), or `None` when it does not fit or was rejected (an
        /// error is recorded on the trace at every lookup).
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
                    let term = Term::derive(ctx, buffer, fp, members);
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

        /// Drops the entries a merge of quotient vertices `a` and `b`
        /// makes stale; the entry of `a ∪ b` stays as the new group's.
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

    /// Merge legality over a freshly built quotient: per vertex, the
    /// vertices it reaches by two or more edges.
    struct MergeLegality {
        words: usize,
        far: Vec<u64>,
    }

    impl MergeLegality {
        fn new(quotient: &Quotient) -> Self {
            let k = quotient.num_subgraphs();
            let words = k.div_ceil(64);
            let Some(order) = quotient.topo_order() else {
                return Self {
                    words,
                    far: vec![u64::MAX; k * words],
                };
            };
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

        fn is_legal(&self, a: u32, b: u32) -> bool {
            self.far[a as usize * self.words + b as usize / 64] & (1 << (b % 64)) == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceGreedy;
    use super::*;
    use crate::objective::{BufferSpace, Objective};
    use crate::SearchMethod;
    use cocco_graph::{Dims2, GraphBuilder, Kernel, LayerOp, TensorShape};
    use cocco_partition::repair;
    use cocco_sim::{AcceleratorConfig, BufferConfig, CostMetric, Evaluator};
    use cocco_tiling::{Mapper, MapperPolicy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    thread_local! {
        /// Every legality verdict [`Fusion::is_legal`] gave on this
        /// thread, as `(a, b, legal)`, for the oracle tests to check.
        pub(super) static VERDICTS: RefCell<Vec<(u32, u32, bool)>> =
            const { RefCell::new(Vec::new()) };
    }

    /// Takes the verdicts recorded on this thread so far.
    fn take_verdicts() -> Vec<(u32, u32, bool)> {
        VERDICTS.with(|v| std::mem::take(&mut *v.borrow_mut()))
    }

    /// Is there a path `a ⇝ b` in the quotient other than the direct edge?
    /// The DFS oracle of [`Fusion::is_legal`].
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

    /// Asserts that the kept positions of the live groups are distinct
    /// and order every kept edge forward.
    fn assert_topological(fusion: &Fusion, what: &str) {
        let mut positions = Vec::new();
        for (a, group) in fusion.groups.iter().enumerate() {
            if !group.is_live() {
                continue;
            }
            positions.push(fusion.pos[a]);
            for edge in &group.succs {
                assert!(
                    fusion.pos[a] < fusion.pos[edge.to as usize],
                    "{what}: edge {a} -> {} points back in the order",
                    edge.to
                );
            }
        }
        positions.sort_unstable();
        let len = positions.len();
        positions.dedup();
        assert_eq!(positions.len(), len, "{what}: two groups share a position");
    }

    /// Asserts that the kept state is the one its partition defines —
    /// members, fingerprints, labels and adjacency equal to a freshly built
    /// quotient's — that its positions are a topological order, and that
    /// the bounded legality test agrees with the DFS oracle on every edge;
    /// returns how many edges are illegal.
    fn assert_kept_state_matches_oracle(
        graph: &cocco_graph::Graph,
        fusion: &mut Fusion,
        what: &str,
    ) -> usize {
        let q = Quotient::build(graph, &fusion.partition);
        let subgraphs = fusion.partition.subgraphs();
        // Live slots ascend by label, as compact ids do.
        let live: Vec<u32> = (0..fusion.groups.len() as u32)
            .filter(|&v| fusion.groups[v as usize].is_live())
            .collect();
        assert_eq!(live.len(), q.num_subgraphs(), "{what}: group count");
        let compact = |slot: u32| live.binary_search(&slot).unwrap() as u32;
        for (c, &v) in live.iter().enumerate() {
            let group = &fusion.groups[v as usize];
            assert_eq!(group.members, subgraphs[c], "{what}: members of {v}");
            assert_eq!(group.fp, NodeSetFp::of_members(&group.members), "{what}");
            let succs: Vec<u32> = group.succs.iter().map(|e| compact(e.to)).collect();
            let preds: Vec<u32> = group.preds.iter().map(|&p| compact(p)).collect();
            assert_eq!(succs, q.succs(c as u32), "{what}: successors of {v}");
            assert_eq!(preds, q.preds(c as u32), "{what}: predecessors of {v}");
        }
        assert_topological(fusion, what);
        let mut illegal = 0;
        for &a in &live {
            for i in 0..fusion.groups[a as usize].succs.len() {
                let b = fusion.groups[a as usize].succs[i].to;
                let indirect = has_indirect_path(&q, compact(a), compact(b));
                assert_eq!(fusion.is_legal(a, b), !indirect, "{what}: edge {a} -> {b}");
                illegal += usize::from(indirect);
            }
        }
        take_verdicts();
        illegal
    }

    #[test]
    fn merge_legality_matches_the_dfs_oracle() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut illegal = 0;
        for &(name, build) in cocco_graph::models::registry() {
            let g = build();
            let n = g.len();
            let mut singletons = Fusion::new(&g, Partition::singletons(n));
            illegal += assert_kept_state_matches_oracle(&g, &mut singletons, name);
            // The kept state after every greedy step.
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
                let fusion = driver.fusion.as_mut().unwrap();
                illegal +=
                    assert_kept_state_matches_oracle(&g, fusion, &format!("{name} step {steps}"));
                steps += 1;
            }
            assert!(steps > 0, "{name}: greedy merged nothing");
            // Seeded random valid partitions, from few large subgraphs to
            // many small ones.
            for round in 0..6 {
                let labels = rng.gen_range(2..=n as u32);
                let assignment = (0..n).map(|_| rng.gen_range(0..labels)).collect();
                let partition = repair(&g, Partition::from_assignment(assignment), &|_| true);
                let mut fusion = Fusion::new(&g, partition);
                illegal += assert_kept_state_matches_oracle(
                    &g,
                    &mut fusion,
                    &format!("{name} random {round}"),
                );
            }
        }
        assert!(illegal > 0, "no partition had an illegal merge to check");
    }

    /// Which term branches a run met, in how many merges, and how many
    /// legality verdicts the steps consulted.
    #[derive(Debug, Default)]
    struct Branches {
        merges: usize,
        too_big: bool,
        errors: u64,
        verdicts: usize,
        illegal: usize,
    }

    /// Steps the kept-state driver and [`ReferenceGreedy`] side by side,
    /// each on its own evaluator, and asserts after every step that both
    /// chose the same merge (hold the same partition) and have done the
    /// same work: infeasible errors recorded, statistics derived and
    /// subgraph terms scored. Also asserts after every step that the kept
    /// positions are a topological order, and that every legality verdict
    /// the step consulted equals the DFS oracle's on the quotient the step
    /// started from.
    fn assert_matches_reference(
        graph: &cocco_graph::Graph,
        config: &AcceleratorConfig,
        space: BufferSpace,
        what: &str,
    ) -> Branches {
        let eval = Evaluator::new(graph, config.clone());
        let ref_eval = Evaluator::new(graph, config.clone());
        let objective = Objective::paper_energy_capacity();
        let ctx = SearchContext::new(graph, &eval, space, objective, 0);
        let ref_ctx = SearchContext::new(graph, &ref_eval, space, objective, 0);
        let work = |ctx: &SearchContext<'_>, eval: &Evaluator<'_>| {
            (
                ctx.trace().infeasible_errors(),
                eval.stats_derivations(),
                ctx.engine().stats().subgraph_scorings,
            )
        };
        let mut driver = GreedyDriver::default();
        let mut reference = ReferenceGreedy::new();
        let mut seen = Branches::default();
        take_verdicts();
        loop {
            let before = driver.fusion.as_ref().map_or_else(
                || Partition::singletons(graph.len()),
                |fusion| fusion.partition.clone(),
            );
            let step = (driver.next_batch(&ctx), reference.step(&ref_ctx));
            let at = format!("{what} step {}", seen.merges);
            assert_eq!(
                work(&ctx, &eval),
                work(&ref_ctx, &ref_eval),
                "{at}: (infeasible errors, derivations, scorings)"
            );
            // A fresh driver's slots are its labels.
            let q = Quotient::build(graph, &before);
            for (a, b, legal) in take_verdicts() {
                let (a_c, b_c) = (q.compact_id(a), q.compact_id(b));
                assert!(q.succs(a_c).contains(&b_c), "{at}: {a} -> {b} is no edge");
                let indirect = has_indirect_path(&q, a_c, b_c);
                assert_eq!(legal, !indirect, "{at}: verdict on {a} -> {b}");
                seen.verdicts += 1;
                seen.illegal += usize::from(indirect);
            }
            match step {
                (Step::Continue, Step::Continue) => {
                    let fusion = driver.fusion.as_ref().unwrap();
                    assert_eq!(
                        Some(&fusion.partition),
                        reference.partition.as_ref(),
                        "{at}"
                    );
                    assert_topological(fusion, &at);
                    seen.too_big |= fusion.groups.iter().any(|g| {
                        g.term == Some(Term::TooBig)
                            || g.succs.iter().any(|e| e.term == Some(Term::TooBig))
                    });
                    seen.merges += 1;
                }
                (Step::Done, Step::Done) => {
                    assert_eq!(driver.outcome, reference.outcome, "{at}");
                    seen.errors = ctx.trace().infeasible_errors();
                    return seen;
                }
                (step, ref_step) => panic!("{at}: kept {step:?}, reference {ref_step:?}"),
            }
        }
    }

    /// Two paths from one input into an eltwise whose stride products
    /// differ, so a set holding both has no consistent update rate.
    fn skew() -> cocco_graph::Graph {
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
    fn kept_state_matches_the_reference_step_by_step() {
        let config = AcceleratorConfig::default();
        let mut illegal = 0;
        let tight = BufferSpace::fixed(BufferConfig::shared(512 << 10));
        for &(name, build) in cocco_graph::models::registry() {
            let g = build();
            for (space_name, space) in [
                ("shared", BufferSpace::paper_shared()),
                ("separate", BufferSpace::paper_separate()),
                ("tight", tight),
            ] {
                let seen =
                    assert_matches_reference(&g, &config, space, &format!("{name} {space_name}"));
                assert!(seen.merges > 0, "{name} {space_name}: nothing merged");
                assert!(seen.verdicts > 0, "{name} {space_name}: no verdict checked");
                illegal += seen.illegal;
                if space_name == "tight" {
                    assert!(seen.too_big, "{name}: the tight buffer rejected no set");
                }
            }
        }
        let skew_config = AcceleratorConfig {
            mapper: Mapper::new(MapperPolicy::Tile { rows: 1, cols: 1 }),
            ..AcceleratorConfig::default()
        };
        let seen =
            assert_matches_reference(&skew(), &skew_config, BufferSpace::paper_shared(), "skew");
        assert!(seen.errors > 0, "skew: no set was rejected ({seen:?})");
        assert!(illegal > 0, "no step consulted an illegal edge");
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
