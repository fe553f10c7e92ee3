//! Validity repair: connectivity splits, SCC merges and in-situ capacity
//! splits (paper §4.4.4).
//!
//! Every pass exists in two flavours: the plain entry points
//! ([`repair`], [`repair_connectivity`], [`split_oversized`]) and
//! `*_with_delta` variants that additionally record, into a
//! [`PartitionDelta`], every node whose subgraph *membership set* the pass
//! changed — the change record the incremental evaluation path uses to
//! re-score only touched subgraphs. Renumbering alone (canonicalization)
//! emits no dirt: node-level deltas survive id remapping by construction.
//!
//! All passes of one call share one dense scratch ([`Repair`]): per-node
//! labels, a union-find, one compressed-sparse-row quotient and a flat
//! member layout, allocated once and reused. A connectivity pass labels
//! weakly connected components in first-node order, builds one quotient
//! over them and runs Kahn with ties broken by label — which is the
//! smallest-member rule of [`Quotient::topo_order`](crate::Quotient::topo_order),
//! so Kahn's order *is* the canonical renumbering. Only a cyclic quotient
//! pays for an SCC merge and another pass.

use crate::delta::PartitionDelta;
use crate::layout::LayoutArena;
use crate::partition::Partition;
use crate::quotient::{compact_ids, Csr, Tarjan};
use cocco_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Restores connectivity and acyclicity after arbitrary assignment edits:
///
/// 1. split every subgraph into its weakly-connected components;
/// 2. merge each quotient SCC into one subgraph — the SCC's members are
///    mutually reachable through each other's edges, so the merged subgraph
///    stays connected while the quotient becomes acyclic;
/// 3. iterate (an SCC merge can join components that a later split leaves
///    untouched, so one extra pass settles the fixpoint);
/// 4. canonicalize ids into execution order.
///
/// The result always satisfies [`Partition::validate`].
///
/// # Examples
///
/// ```
/// use cocco_partition::{repair_connectivity, Partition};
///
/// let g = cocco_graph::models::diamond();
/// // Invalid: quotient cycle between subgraphs 0 and 1.
/// let broken = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
/// let fixed = repair_connectivity(&g, broken);
/// assert!(fixed.validate(&g).is_ok());
/// ```
pub fn repair_connectivity(graph: &Graph, partition: Partition) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    repair_connectivity_with_delta(graph, partition, &mut delta)
}

/// [`repair_connectivity`], recording every membership change into `delta`.
pub fn repair_connectivity_with_delta(
    graph: &Graph,
    partition: Partition,
    delta: &mut PartitionDelta,
) -> Partition {
    let mut repair = Repair::new(graph, &partition);
    repair.connectivity(delta);
    repair.finish()
}

/// Splits every subgraph whose footprint check fails, using the paper's
/// in-situ `split-subgraph`: the subgraph is halved along the topological
/// order (never creating quotient cycles), components are re-split, and the
/// process repeats until every subgraph fits or is a single node.
///
/// `fits` receives the (ascending) member list of one subgraph. It must be
/// pure: a member set that already fitted is not asked again.
pub fn split_oversized(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    split_oversized_with_delta(graph, partition, fits, &mut delta)
}

/// [`split_oversized`], recording every membership change into `delta`.
pub fn split_oversized_with_delta(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
) -> Partition {
    let mut repair = Repair::new(graph, &partition);
    // The input may be invalid: a partition nothing had to split comes
    // back untouched, anything else goes through a full connectivity pass.
    if repair.capacity(fits, delta, false) {
        repair.finish()
    } else {
        partition
    }
}

/// Full repair pipeline: connectivity + acyclicity, then capacity splits.
/// The result is valid and every multi-node subgraph satisfies `fits`.
pub fn repair(graph: &Graph, partition: Partition, fits: &dyn Fn(&[NodeId]) -> bool) -> Partition {
    let mut delta = PartitionDelta::clean(graph.len());
    repair_with_delta(graph, partition, fits, &mut delta)
}

/// [`repair`], recording every membership change into `delta`. A node the
/// pipeline never moves between member sets stays clean, so a subgraph
/// with no dirty node is guaranteed to be the same member set the caller
/// had before repair.
pub fn repair_with_delta(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
) -> Partition {
    let mut repair = Repair::new(graph, &partition);
    repair.connectivity(delta);
    repair.capacity(fits, delta, true);
    repair.finish()
}

/// The dense scratch of one repair call. Labels are always dense
/// (`0..k`); every buffer is sized once and reused by every pass.
struct Repair<'g> {
    graph: &'g Graph,
    /// Current subgraph label per node.
    ids: Vec<u32>,
    /// Number of labels in `ids`.
    k: usize,
    /// A pass's new label per node (components, before renumbering).
    comp: Vec<u32>,
    /// Union-find forest; every root is its component's smallest node.
    parent: Vec<u32>,
    /// Per-label scratch: first component seen, label map or SCC size.
    first: Vec<u32>,
    /// Per-label flag: the subgraph split into several components.
    split: Vec<bool>,
    quotient: Csr,
    indegree: Vec<u32>,
    ready: BinaryHeap<Reverse<u32>>,
    /// Execution position per component label.
    rank: Vec<u32>,
    tarjan: Tarjan,
    scc: Vec<u32>,
    /// Flat member layout of `ids` (labels are dense, so subgraph `s` of
    /// the layout is label `s`).
    layout: LayoutArena,
    /// Per label: the member set is new since `fits` last saw it.
    fresh: Vec<bool>,
    /// Per node: its subgraph was halved in the current round.
    halved: Vec<bool>,
}

impl<'g> Repair<'g> {
    fn new(graph: &'g Graph, partition: &Partition) -> Self {
        assert_eq!(
            partition.len(),
            graph.len(),
            "partition does not cover the graph"
        );
        let n = graph.len();
        let mut ids = partition.assignment().to_vec();
        let k = compact_ids(&mut ids).len();
        Self {
            graph,
            ids,
            k,
            comp: vec![0; n],
            parent: vec![0; n],
            first: Vec::with_capacity(2 * n),
            split: Vec::with_capacity(n),
            quotient: Csr::default(),
            indegree: Vec::with_capacity(n),
            ready: BinaryHeap::with_capacity(n),
            rank: Vec::with_capacity(n),
            tarjan: Tarjan::default(),
            scc: Vec::new(),
            layout: LayoutArena::new(),
            fresh: Vec::with_capacity(n),
            halved: vec![false; n],
        }
    }

    fn finish(self) -> Partition {
        Partition::from_assignment(self.ids)
    }

    /// Root of `x`'s union-find tree (with path compression).
    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Joins the trees of `a` and `b`, keeping the smaller root.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    /// Component label of node `i` once every smaller node is labelled:
    /// a root opens label `*next`, any other node copies its root's.
    fn label_component(&mut self, i: u32, next: &mut u32) -> u32 {
        let root = self.find(i);
        if root == i {
            *next += 1;
            *next - 1
        } else {
            self.comp[root as usize]
        }
    }

    /// Restores connectivity and acyclicity, leaving `ids` canonical.
    /// At most two passes: an SCC merge yields connected subgraphs whose
    /// quotient is the (acyclic) condensation.
    fn connectivity(&mut self, delta: &mut PartitionDelta) {
        loop {
            let k = self.split_components(delta);
            if self.renumber(k) {
                return;
            }
            self.merge_sccs(k, delta);
        }
    }

    /// Labels the weakly connected components of every subgraph into
    /// `comp`, numbered in first-node order, so a component's smallest
    /// member grows with its label. Marks the members of every subgraph
    /// that split; returns the component count.
    fn split_components(&mut self, delta: &mut PartitionDelta) -> usize {
        let graph = self.graph;
        let n = graph.len() as u32;
        for i in 0..n {
            self.parent[i as usize] = i;
        }
        for u in graph.node_ids() {
            let label = self.ids[u.index()];
            for &c in graph.consumers(u) {
                if self.ids[c.index()] == label {
                    self.union(u.index() as u32, c.index() as u32);
                }
            }
        }
        let mut k = 0u32;
        for i in 0..n {
            self.comp[i as usize] = self.label_component(i, &mut k);
        }
        // Every subgraph holds at least one component, so equal counts
        // mean nothing split.
        if k as usize > self.k {
            self.first.clear();
            self.first.resize(self.k, u32::MAX);
            self.split.clear();
            self.split.resize(self.k, false);
            for (&old, &c) in self.ids.iter().zip(&self.comp) {
                let first = &mut self.first[old as usize];
                if *first == u32::MAX {
                    *first = c;
                } else if *first != c {
                    self.split[old as usize] = true;
                }
            }
            for (i, &old) in self.ids.iter().enumerate() {
                if self.split[old as usize] {
                    delta.touch(NodeId::from_index(i));
                }
            }
        }
        k as usize
    }

    /// Builds the quotient of the `k` labels in `comp` and runs Kahn,
    /// smallest label first. When acyclic, writes the execution position
    /// of every node's label into `ids` and returns `true`.
    fn renumber(&mut self, k: usize) -> bool {
        self.quotient.build_quotient(self.graph, &self.comp, k);
        self.indegree.clear();
        self.indegree.resize(k, 0);
        for &t in self.quotient.targets() {
            self.indegree[t as usize] += 1;
        }
        self.ready.clear();
        for (c, &d) in self.indegree.iter().enumerate() {
            if d == 0 {
                self.ready.push(Reverse(c as u32));
            }
        }
        self.rank.clear();
        self.rank.resize(k, 0);
        let mut position = 0u32;
        while let Some(Reverse(c)) = self.ready.pop() {
            self.rank[c as usize] = position;
            position += 1;
            for &s in self.quotient.row(c) {
                self.indegree[s as usize] -= 1;
                if self.indegree[s as usize] == 0 {
                    self.ready.push(Reverse(s));
                }
            }
        }
        if position as usize != k {
            return false;
        }
        for (id, &c) in self.ids.iter_mut().zip(&self.comp) {
            *id = self.rank[c as usize];
        }
        self.k = k;
        true
    }

    /// Merges every quotient SCC of the `k` labels in `comp` (the
    /// quotient [`renumber`](Self::renumber) just built) into one
    /// subgraph, marking the members of every non-trivial SCC.
    fn merge_sccs(&mut self, k: usize, delta: &mut PartitionDelta) {
        let count = self.tarjan.run(&self.quotient, &mut self.scc);
        debug_assert_eq!(self.scc.len(), k);
        self.first.clear();
        self.first.resize(count, 0);
        for &s in &self.scc {
            self.first[s as usize] += 1;
        }
        for (i, &c) in self.comp.iter().enumerate() {
            let s = self.scc[c as usize];
            if self.first[s as usize] > 1 {
                delta.touch(NodeId::from_index(i));
            }
            self.ids[i] = s;
        }
        self.k = count;
    }

    /// The in-situ capacity splits, in rounds: every fresh multi-node
    /// subgraph that fails `fits` is halved along the topological order,
    /// then validity is restored. `valid` says the labels are canonical
    /// and valid, so a halving can only disconnect the halved subgraphs
    /// and never closes a quotient cycle; otherwise the first restore is a
    /// full connectivity pass. Only member sets that changed in the last
    /// round are asked again — `fits` is pure, and an unchanged set fitted
    /// already. Returns whether anything was halved.
    fn capacity(
        &mut self,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
        mut valid: bool,
    ) -> bool {
        self.fresh.clear();
        self.fresh.resize(self.k, true);
        let mut changed = false;
        loop {
            let layout = self.layout.build_from_assignment(&self.ids);
            self.halved.fill(false);
            let mut next = self.k as u32;
            for s in 0..self.k {
                let members = layout.subgraph(s);
                if !self.fresh[s] || members.len() <= 1 || fits(members) {
                    continue;
                }
                // Halve: members ascend, so every internal edge flows
                // first half -> second half.
                delta.touch_members(members);
                for &m in members {
                    self.halved[m.index()] = true;
                }
                for &m in &members[members.len() / 2..] {
                    self.ids[m.index()] = next;
                }
                next += 1;
            }
            if next as usize == self.k {
                return changed;
            }
            changed = true;
            if valid {
                self.resplit_halved(next as usize);
                self.fresh.clear();
                self.fresh.resize(self.k, false);
                for (&id, &halved) in self.ids.iter().zip(&self.halved) {
                    self.fresh[id as usize] |= halved;
                }
            } else {
                self.k = next as usize;
                self.connectivity(delta);
                valid = true;
                self.fresh.clear();
                self.fresh.resize(self.k, true);
            }
        }
    }

    /// Restores a canonical valid partition after halving (`labels`
    /// labels in `ids`): splits only the halved subgraphs into components,
    /// keeps every other subgraph whole, and renumbers. Halves of an
    /// acyclic quotient's vertices along the topological order stay
    /// acyclic, and the pieces' dirt was marked by the halving itself.
    fn resplit_halved(&mut self, labels: usize) {
        let graph = self.graph;
        for i in 0..graph.len() {
            if self.halved[i] {
                self.parent[i] = i as u32;
            }
        }
        for u in graph.node_ids() {
            let i = u.index();
            if !self.halved[i] {
                continue;
            }
            // Pieces carry labels no whole subgraph has, so an equal
            // label keeps the edge inside the piece.
            for &c in graph.consumers(u) {
                if self.ids[c.index()] == self.ids[i] {
                    self.union(i as u32, c.index() as u32);
                }
            }
        }
        self.first.clear();
        self.first.resize(labels, u32::MAX);
        let mut k = 0u32;
        for i in 0..graph.len() {
            self.comp[i] = if self.halved[i] {
                self.label_component(i as u32, &mut k)
            } else {
                let first = &mut self.first[self.ids[i] as usize];
                if *first == u32::MAX {
                    *first = k;
                    k += 1;
                }
                *first
            };
        }
        let acyclic = self.renumber(k as usize);
        debug_assert!(
            acyclic,
            "halving along the topological order closed a cycle"
        );
    }
}

/// The nested-`Vec`, hash-map repair pipeline the dense [`Repair`] replaced,
/// kept verbatim as the oracle the property tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::delta::PartitionDelta;
    use crate::partition::Partition;
    use cocco_graph::{Graph, NodeId};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The quotient with per-subgraph `Vec`s and a binary search per edge.
    pub(crate) struct RefQuotient {
        originals: Vec<u32>,
        succs: Vec<Vec<u32>>,
        preds: Vec<Vec<u32>>,
        min_member: Vec<u32>,
    }

    impl RefQuotient {
        pub(crate) fn build(graph: &Graph, partition: &Partition) -> Self {
            assert_eq!(partition.len(), graph.len());
            let mut originals: Vec<u32> = partition.assignment().to_vec();
            originals.sort_unstable();
            originals.dedup();
            let k = originals.len();
            let compact = |orig: u32| -> u32 { originals.binary_search(&orig).unwrap() as u32 };
            let mut succs: Vec<Vec<u32>> = vec![Vec::new(); k];
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); k];
            let mut min_member = vec![u32::MAX; k];
            for (i, &a) in partition.assignment().iter().enumerate() {
                let c = compact(a) as usize;
                min_member[c] = min_member[c].min(i as u32);
            }
            for id in graph.node_ids() {
                let from = compact(partition.subgraph_of(id));
                for &cons in graph.consumers(id) {
                    let to = compact(partition.subgraph_of(cons));
                    if from != to {
                        succs[from as usize].push(to);
                        preds[to as usize].push(from);
                    }
                }
            }
            for v in succs.iter_mut().chain(preds.iter_mut()) {
                v.sort_unstable();
                v.dedup();
            }
            Self {
                originals,
                succs,
                preds,
                min_member,
            }
        }

        pub(crate) fn num_subgraphs(&self) -> usize {
            self.originals.len()
        }

        pub(crate) fn compact_id(&self, original: u32) -> u32 {
            self.originals.binary_search(&original).unwrap() as u32
        }

        pub(crate) fn succs(&self, id: u32) -> &[u32] {
            &self.succs[id as usize]
        }

        pub(crate) fn preds(&self, id: u32) -> &[u32] {
            &self.preds[id as usize]
        }

        pub(crate) fn topo_order(&self) -> Option<Vec<u32>> {
            let k = self.num_subgraphs();
            let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
            let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
            for (id, &d) in indegree.iter().enumerate() {
                if d == 0 {
                    heap.push(Reverse((self.min_member[id], id as u32)));
                }
            }
            let mut order = Vec::with_capacity(k);
            while let Some(Reverse((_, id))) = heap.pop() {
                order.push(id);
                for &s in &self.succs[id as usize] {
                    indegree[s as usize] -= 1;
                    if indegree[s as usize] == 0 {
                        heap.push(Reverse((self.min_member[s as usize], s)));
                    }
                }
            }
            (order.len() == k).then_some(order)
        }

        pub(crate) fn sccs(&self) -> Vec<Vec<u32>> {
            let k = self.num_subgraphs();
            let mut index = vec![u32::MAX; k];
            let mut lowlink = vec![0u32; k];
            let mut on_stack = vec![false; k];
            let mut stack: Vec<u32> = Vec::new();
            let mut next_index = 0u32;
            let mut sccs: Vec<Vec<u32>> = Vec::new();
            let mut call: Vec<(u32, usize)> = Vec::new();
            for start in 0..k as u32 {
                if index[start as usize] != u32::MAX {
                    continue;
                }
                call.push((start, 0));
                index[start as usize] = next_index;
                lowlink[start as usize] = next_index;
                next_index += 1;
                stack.push(start);
                on_stack[start as usize] = true;
                while let Some(&mut (v, ref mut child)) = call.last_mut() {
                    if *child < self.succs[v as usize].len() {
                        let w = self.succs[v as usize][*child];
                        *child += 1;
                        if index[w as usize] == u32::MAX {
                            index[w as usize] = next_index;
                            lowlink[w as usize] = next_index;
                            next_index += 1;
                            stack.push(w);
                            on_stack[w as usize] = true;
                            call.push((w, 0));
                        } else if on_stack[w as usize] {
                            lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                        }
                    } else {
                        call.pop();
                        if let Some(&(parent, _)) = call.last() {
                            lowlink[parent as usize] =
                                lowlink[parent as usize].min(lowlink[v as usize]);
                        }
                        if lowlink[v as usize] == index[v as usize] {
                            let mut scc = Vec::new();
                            while let Some(w) = stack.pop() {
                                on_stack[w as usize] = false;
                                scc.push(w);
                                if w == v {
                                    break;
                                }
                            }
                            scc.sort_unstable();
                            sccs.push(scc);
                        }
                    }
                }
            }
            sccs
        }
    }

    fn canonicalize(graph: &Graph, partition: &mut Partition) -> bool {
        let quotient = RefQuotient::build(graph, partition);
        let order = quotient.topo_order();
        let mut remap = vec![u32::MAX; quotient.num_subgraphs()];
        if let Some(order) = &order {
            for (new_id, &old) in order.iter().enumerate() {
                remap[old as usize] = new_id as u32;
            }
        }
        for i in 0..partition.len() {
            let node = NodeId::from_index(i);
            let compact = quotient.compact_id(partition.subgraph_of(node));
            let id = if order.is_some() {
                remap[compact as usize]
            } else {
                compact
            };
            partition.assign(node, id);
        }
        order.is_some()
    }

    pub(crate) fn repair_connectivity_with_delta(
        graph: &Graph,
        mut partition: Partition,
        delta: &mut PartitionDelta,
    ) -> Partition {
        for _ in 0..graph.len().max(4) {
            split_components(graph, &mut partition, delta);
            let merged = merge_sccs(graph, &mut partition, delta);
            if !merged {
                break;
            }
        }
        let ok = canonicalize(graph, &mut partition);
        debug_assert!(ok, "repair_connectivity left a cyclic quotient");
        partition
    }

    pub(crate) fn split_oversized_with_delta(
        graph: &Graph,
        mut partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
    ) -> Partition {
        loop {
            let mut changed = false;
            let mut next = partition.fresh_id();
            for members in partition.subgraphs() {
                if members.len() <= 1 || fits(&members) {
                    continue;
                }
                delta.touch_members(&members);
                let mid = members.len() / 2;
                for &m in &members[mid..] {
                    partition.assign(m, next);
                }
                next += 1;
                changed = true;
            }
            if !changed {
                break;
            }
            partition = repair_connectivity_with_delta(graph, partition, delta);
        }
        partition
    }

    pub(crate) fn repair_with_delta(
        graph: &Graph,
        partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
    ) -> Partition {
        let partition = repair_connectivity_with_delta(graph, partition, delta);
        split_oversized_with_delta(graph, partition, fits, delta)
    }

    fn split_components(graph: &Graph, partition: &mut Partition, delta: &mut PartitionDelta) {
        let n = graph.len();
        let mut parent: Vec<u32> = (0..n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for id in graph.node_ids() {
            for &c in graph.consumers(id) {
                if partition.subgraph_of(id) == partition.subgraph_of(c) {
                    let (a, b) = (
                        find(&mut parent, id.index() as u32),
                        find(&mut parent, c.index() as u32),
                    );
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        let olds: Vec<u32> = (0..n)
            .map(|i| partition.subgraph_of(NodeId::from_index(i)))
            .collect();
        let roots: Vec<u32> = (0..n).map(|i| find(&mut parent, i as u32)).collect();
        let mut fresh = partition.fresh_id();
        let mut remap: std::collections::HashMap<(u32, u32), u32> =
            std::collections::HashMap::new();
        let mut components_of: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for i in 0..n {
            let id = *remap.entry((olds[i], roots[i])).or_insert_with(|| {
                let id = fresh;
                fresh += 1;
                *components_of.entry(olds[i]).or_insert(0) += 1;
                id
            });
            partition.assign(NodeId::from_index(i), id);
        }
        for (i, old) in olds.iter().enumerate() {
            if components_of.get(old).copied().unwrap_or(0) > 1 {
                delta.touch(NodeId::from_index(i));
            }
        }
    }

    fn merge_sccs(graph: &Graph, partition: &mut Partition, delta: &mut PartitionDelta) -> bool {
        let quotient = RefQuotient::build(graph, partition);
        let sccs = quotient.sccs();
        if sccs.iter().all(|s| s.len() == 1) {
            return false;
        }
        let mut rep = vec![0u32; quotient.num_subgraphs()];
        let mut scc_len = vec![0usize; quotient.num_subgraphs()];
        for scc in &sccs {
            for &m in scc {
                rep[m as usize] = scc[0];
                scc_len[m as usize] = scc.len();
            }
        }
        for i in 0..partition.len() {
            let node = NodeId::from_index(i);
            let compact = quotient.compact_id(partition.subgraph_of(node));
            if scc_len[compact as usize] > 1 {
                delta.touch(node);
            }
            partition.assign(node, rep[compact as usize]);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    #[test]
    fn repairs_random_assignments() {
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let k = rng.gen_range(1..=20u32);
            let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
            let p = repair_connectivity(&g, Partition::from_assignment(assignment));
            assert!(p.validate(&g).is_ok());
        }
    }

    #[test]
    fn valid_partitions_pass_through_stably() {
        let g = cocco_graph::models::chain(5);
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let repaired = repair_connectivity(&g, p.clone());
        assert_eq!(repaired, p);
    }

    #[test]
    fn scc_merge_preserves_connectivity() {
        let g = cocco_graph::models::diamond();
        // Cycle: {input,a,l,add} vs {r}.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let fixed = repair_connectivity(&g, p);
        assert!(fixed.validate(&g).is_ok());
        // The cycle can only be fixed by merging: one subgraph remains.
        assert_eq!(fixed.num_subgraphs(), 1);
    }

    #[test]
    fn oversized_split_terminates_at_singletons() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Nothing fits: must end fully split.
        let fixed = split_oversized(&g, p, &|_| false);
        assert!(fixed.validate(&g).is_ok());
        assert_eq!(fixed.num_subgraphs(), g.len());
    }

    #[test]
    fn oversized_split_respects_fitting_subgraphs() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Subgraphs of <= 3 nodes "fit".
        let fixed = split_oversized(&g, p, &|m| m.len() <= 3);
        assert!(fixed.validate(&g).is_ok());
        assert!(fixed.subgraphs().iter().all(|m| m.len() <= 3));
        // Should not have split all the way down.
        assert!(fixed.num_subgraphs() < g.len());
    }

    #[test]
    fn clean_pass_through_emits_no_dirt() {
        let g = cocco_graph::models::chain(5);
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 1, 1]);
        let mut delta = PartitionDelta::clean(g.len());
        let repaired = repair_with_delta(&g, p.clone(), &|_| true, &mut delta);
        assert_eq!(repaired, p);
        assert!(delta.is_clean(), "a no-op repair must not invalidate reuse");
    }

    #[test]
    fn scc_merge_marks_merged_members() {
        let g = cocco_graph::models::diamond();
        // Cycle: {input,a,l,add} vs {r} — repair merges everything.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let mut delta = PartitionDelta::clean(g.len());
        let fixed = repair_connectivity_with_delta(&g, p, &mut delta);
        assert_eq!(fixed.num_subgraphs(), 1);
        assert!(
            delta.is_all(),
            "every node's subgraph membership changed in the merge"
        );
    }

    #[test]
    fn capacity_split_marks_only_the_halved_subgraph() {
        let g = cocco_graph::models::chain(7); // 8 nodes
        let p = Partition::from_assignment(vec![0, 0, 0, 0, 1, 1, 1, 1]);
        let mut delta = PartitionDelta::clean(g.len());
        // Only the second subgraph is "too big".
        let first = cocco_graph::NodeId::from_index(0);
        let fixed =
            split_oversized_with_delta(&g, p, &|m| m.len() <= 2 || m.contains(&first), &mut delta);
        assert!(fixed.validate(&g).is_ok());
        for i in 0..4 {
            assert!(
                !delta.is_dirty(cocco_graph::NodeId::from_index(i)),
                "untouched subgraph must stay clean (node {i})"
            );
        }
        for i in 4..8 {
            assert!(
                delta.is_dirty(cocco_graph::NodeId::from_index(i)),
                "halved subgraph must be marked (node {i})"
            );
        }
    }

    #[test]
    fn untouched_subgraphs_keep_their_member_sets() {
        // The reuse invariant: after repair, any subgraph with no dirty
        // node has a member set that already existed before the repair.
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..20 {
            let k = rng.gen_range(1..=16u32);
            let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
            let before = Partition::from_assignment(assignment);
            let old_sets: std::collections::HashSet<Vec<cocco_graph::NodeId>> =
                before.subgraphs().into_iter().collect();
            let mut delta = PartitionDelta::clean(g.len());
            let after = repair_with_delta(&g, before, &|m| m.len() <= 6, &mut delta);
            let dirty = delta.dirty_subgraphs(&after);
            for (members, dirty) in after.subgraphs().into_iter().zip(dirty) {
                if !dirty {
                    assert!(
                        old_sets.contains(&members),
                        "clean subgraph {members:?} did not exist before repair"
                    );
                }
            }
        }
    }

    #[test]
    fn full_repair_on_random_nasnet_assignments() {
        let g = cocco_graph::models::randwire_a();
        let mut rng = StdRng::seed_from_u64(11);
        let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..12)).collect();
        let fixed = repair(&g, Partition::from_assignment(assignment), &|m| {
            m.len() <= 10
        });
        assert!(fixed.validate(&g).is_ok());
        assert!(fixed.subgraphs().iter().all(|m| m.len() <= 10));
    }

    /// One GA-style edit (modify-node, split-subgraph or merge-subgraph,
    /// as in `cocco-search`'s mutation operators) or, now and then, a
    /// uniformly random reassignment.
    fn edit(g: &Graph, p: &mut Partition, rng: &mut StdRng) {
        let n = g.len();
        match rng.gen_range(0..10) {
            0..=3 => {
                let node = NodeId::from_index(rng.gen_range(0..n));
                let mut targets: Vec<u32> = g
                    .producers(node)
                    .iter()
                    .chain(g.consumers(node))
                    .map(|&v| p.subgraph_of(v))
                    .collect();
                targets.push(p.fresh_id());
                p.assign(node, targets[rng.gen_range(0..targets.len())]);
            }
            4..=6 => {
                let groups: Vec<Vec<NodeId>> =
                    p.subgraphs().into_iter().filter(|s| s.len() >= 2).collect();
                if !groups.is_empty() {
                    let group = &groups[rng.gen_range(0..groups.len())];
                    let fresh = p.fresh_id();
                    for &m in &group[rng.gen_range(1..group.len())..] {
                        p.assign(m, fresh);
                    }
                }
            }
            7 | 8 => {
                let u = NodeId::from_index(rng.gen_range(0..n));
                if let Some(&c) = g.consumers(u).first() {
                    let (from, to) = (p.subgraph_of(c), p.subgraph_of(u));
                    for i in 0..n {
                        if p.assignment()[i] == from {
                            p.assign(NodeId::from_index(i), to);
                        }
                    }
                }
            }
            _ => {
                let k = rng.gen_range(1..=24u32);
                *p = Partition::from_assignment((0..n).map(|_| rng.gen_range(0..k)).collect());
            }
        }
    }

    /// A pure, content-dependent predicate: fits unless a hash of the
    /// member list lands in the lower third.
    fn hashed_fits(members: &[NodeId]) -> bool {
        let h = members.iter().fold(0x9e37_79b9_u64, |h, m| {
            (h ^ m.index() as u64).wrapping_mul(0x100_0000_01b3)
        });
        members.len() <= 2 || h % 3 != 0
    }

    /// Asserts `calls` is a subsequence of `reference` and that every
    /// reference call it skips repeats an earlier reference call.
    fn assert_fits_subsequence(calls: &[Vec<NodeId>], reference: &[Vec<NodeId>], context: &str) {
        let mut next = 0;
        for (j, asked) in reference.iter().enumerate() {
            if calls.get(next) == Some(asked) {
                next += 1;
            } else {
                assert!(
                    reference[..j].contains(asked),
                    "{context}: skipped fits call {asked:?} was never asked before"
                );
            }
        }
        assert_eq!(
            next,
            calls.len(),
            "{context}: fits calls are not a subsequence"
        );
    }

    #[test]
    fn dense_repair_matches_the_reference_on_mutation_walks() {
        type Fits<'a> = &'a dyn Fn(&[NodeId]) -> bool;
        let predicates: [(&str, Fits); 4] = [
            ("always", &|_| true),
            ("never", &|_| false),
            ("cap6", &|m| m.len() <= 6),
            ("hashed", &hashed_fits),
        ];
        let mut rng = StdRng::seed_from_u64(0x00c0_cc0a);
        let mut skipped = 0;
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            for (pred_name, pred) in predicates {
                let mut p = Partition::singletons(g.len());
                for step in 0..12 {
                    edit(&g, &mut p, &mut rng);
                    let context = format!("{name}/{pred_name}/step {step}");
                    let seeded = PartitionDelta::clean(g.len());
                    let (mut d_new, mut d_ref) = (seeded.clone(), seeded);
                    let (calls, ref_calls) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
                    let fits_new = |m: &[NodeId]| {
                        calls.borrow_mut().push(m.to_vec());
                        pred(m)
                    };
                    let fits_ref = |m: &[NodeId]| {
                        ref_calls.borrow_mut().push(m.to_vec());
                        pred(m)
                    };
                    let got = repair_with_delta(&g, p.clone(), &fits_new, &mut d_new);
                    let want = reference::repair_with_delta(&g, p.clone(), &fits_ref, &mut d_ref);
                    assert_eq!(got, want, "{context}: partitions differ");
                    assert_eq!(d_new, d_ref, "{context}: deltas differ");
                    assert_fits_subsequence(&calls.borrow(), &ref_calls.borrow(), &context);
                    skipped += ref_calls.borrow().len() - calls.borrow().len();

                    let (mut c_new, mut c_ref) = (
                        PartitionDelta::clean(g.len()),
                        PartitionDelta::clean(g.len()),
                    );
                    assert_eq!(
                        repair_connectivity_with_delta(&g, p.clone(), &mut c_new),
                        reference::repair_connectivity_with_delta(&g, p.clone(), &mut c_ref),
                        "{context}: connectivity repair differs"
                    );
                    assert_eq!(c_new, c_ref, "{context}: connectivity deltas differ");

                    // The capacity pass alone, on the raw (possibly invalid)
                    // partition.
                    let (mut s_new, mut s_ref) = (
                        PartitionDelta::clean(g.len()),
                        PartitionDelta::clean(g.len()),
                    );
                    assert_eq!(
                        split_oversized_with_delta(&g, p.clone(), pred, &mut s_new),
                        reference::split_oversized_with_delta(&g, p.clone(), pred, &mut s_ref),
                        "{context}: capacity splits differ"
                    );
                    assert_eq!(s_new, s_ref, "{context}: capacity-split deltas differ");

                    // Walk on from the repaired partition, as the GA does,
                    // but occasionally keep the broken one.
                    if rng.gen_bool(0.8) {
                        p = got;
                    }
                }
            }
        }
        assert!(
            skipped > 0,
            "no fits call on an unchanged member set was skipped"
        );
    }
}
