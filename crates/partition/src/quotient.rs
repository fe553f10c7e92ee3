//! The quotient DAG obtained by contracting each subgraph to one vertex,
//! plus the dense building blocks repair shares with it: id compaction,
//! compressed-sparse-row adjacency and an iterative Tarjan.

use crate::partition::Partition;
use cocco_graph::{Graph, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The contracted graph of a partition: one vertex per subgraph, one edge
/// per pair of subgraphs connected by at least one graph edge.
///
/// Subgraph ids are compacted to `0..num_subgraphs()` in ascending id
/// order; use [`compact_id`](Quotient::compact_id) to translate original
/// ids. Adjacency is stored as compressed sparse rows, so
/// [`succs`](Quotient::succs) and [`preds`](Quotient::preds) are slices of
/// one flat buffer each (ascending, no duplicates).
///
/// # Examples
///
/// ```
/// use cocco_partition::{Partition, Quotient};
///
/// let g = cocco_graph::models::chain(3);
/// let p = Partition::from_assignment(vec![0, 0, 1, 1]);
/// let q = Quotient::build(&g, &p);
/// assert_eq!(q.num_subgraphs(), 2);
/// assert!(q.topo_order().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Quotient {
    /// Distinct original ids, ascending; a compact id is a position here.
    originals: Vec<u32>,
    succs: Csr,
    preds: Csr,
    min_member: Vec<u32>,
}

impl Quotient {
    /// Contracts `partition` over `graph`.
    ///
    /// # Panics
    ///
    /// Panics if the partition length does not match the graph.
    pub fn build(graph: &Graph, partition: &Partition) -> Self {
        assert_eq!(
            partition.len(),
            graph.len(),
            "partition does not cover the graph"
        );
        let mut compact = partition.assignment().to_vec();
        let (mut originals, mut table) = (Vec::new(), Vec::new());
        compact_ids_into(&mut compact, &mut originals, &mut table);
        // The compaction table is spent: it takes the unused in-degrees.
        let mut succs = Csr::default();
        succs.build_quotient(graph, &compact, originals.len(), &mut table);
        succs.sort_dedup_rows();
        // Node ids ascend, so the first node seen per compact id is its
        // smallest member.
        let mut min_member = vec![u32::MAX; originals.len()];
        for (i, &c) in compact.iter().enumerate() {
            if min_member[c as usize] == u32::MAX {
                min_member[c as usize] = i as u32;
            }
        }
        let mut preds = Csr::default();
        succs.transpose_into(&mut preds);
        Self {
            originals,
            succs,
            preds,
            min_member,
        }
    }

    /// Number of subgraphs (quotient vertices).
    pub fn num_subgraphs(&self) -> usize {
        self.originals.len()
    }

    /// Translates an original subgraph id to its compact id.
    ///
    /// # Panics
    ///
    /// Panics if `original` is not a subgraph id of the partition.
    pub fn compact_id(&self, original: u32) -> u32 {
        self.originals
            .binary_search(&original)
            // cocco-audit: allow(R1) documented panic: the contract requires a subgraph id of this partition
            .expect("unknown subgraph id") as u32
    }

    /// Successor subgraphs of compact id `id`.
    pub fn succs(&self, id: u32) -> &[u32] {
        self.succs.row(id)
    }

    /// Predecessor subgraphs of compact id `id`.
    pub fn preds(&self, id: u32) -> &[u32] {
        self.preds.row(id)
    }

    /// Kahn topological order over compact ids (ties broken by smallest
    /// member node, giving a deterministic execution order), or `None` if
    /// the quotient is cyclic.
    pub fn topo_order(&self) -> Option<Vec<u32>> {
        let k = self.num_subgraphs();
        let mut indegree: Vec<u32> = (0..k as u32).map(|c| self.preds(c).len() as u32).collect();
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
        for (id, &d) in indegree.iter().enumerate() {
            if d == 0 {
                heap.push(Reverse((self.min_member[id], id as u32)));
            }
        }
        let mut order = Vec::with_capacity(k);
        while let Some(Reverse((_, id))) = heap.pop() {
            order.push(id);
            for &s in self.succs(id) {
                indegree[s as usize] -= 1;
                if indegree[s as usize] == 0 {
                    heap.push(Reverse((self.min_member[s as usize], s)));
                }
            }
        }
        (order.len() == k).then_some(order)
    }

    /// Strongly connected components over compact ids (iterative Tarjan),
    /// in reverse topological order of the condensation; members of each
    /// component ascend.
    pub fn sccs(&self) -> Vec<Vec<u32>> {
        let mut labels = Vec::new();
        let count = Tarjan::default().run(&self.succs, &mut labels);
        let mut sccs: Vec<Vec<u32>> = vec![Vec::new(); count];
        for (v, &label) in labels.iter().enumerate() {
            sccs[label as usize].push(v as u32);
        }
        sccs
    }
}

/// Rewrites `ids` in place to compact ids — each id's rank among the
/// distinct ids, ascending — using reusable buffers: the distinct ids go
/// to `originals`, and `table` is scratch. Ids up to a few times the length
/// (what every producer in the workspace emits) compact through a
/// direct-indexed table; sparser ids through a sorted copy.
pub(crate) fn compact_ids_into(ids: &mut [u32], originals: &mut Vec<u32>, table: &mut Vec<u32>) {
    originals.clear();
    let max = ids.iter().copied().max().map_or(0, |m| m as usize);
    if max > 4 * ids.len() + 64 {
        originals.extend_from_slice(ids);
        originals.sort_unstable();
        originals.dedup();
        for id in ids.iter_mut() {
            // `originals` holds every id, so the search always succeeds.
            *id = originals.binary_search(&*id).unwrap_or_default() as u32;
        }
        return;
    }
    table.clear();
    table.resize(max + 1, u32::MAX);
    for &id in ids.iter() {
        table[id as usize] = 0;
    }
    for (id, slot) in table.iter_mut().enumerate() {
        if *slot == 0 {
            *slot = originals.len() as u32;
            originals.push(id as u32);
        }
    }
    for id in ids.iter_mut() {
        *id = table[*id as usize];
    }
}

/// Compressed sparse rows over vertices `0..rows()`: row `r` is
/// `targets[offsets[r]..offsets[r + 1]]`. Buffers are cleared, capacity
/// kept, between builds.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    /// Build scratch: the crossing edges as `(from, to)`.
    pairs: Vec<(u32, u32)>,
}

impl Csr {
    /// Number of rows (vertices).
    pub(crate) fn rows(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Bytes of heap capacity owned.
    pub(crate) fn bytes(&self) -> u64 {
        let u32s = self.offsets.capacity() + self.targets.capacity() + 2 * self.pairs.capacity();
        (u32s * std::mem::size_of::<u32>()) as u64
    }

    /// Row `r`'s targets.
    pub(crate) fn row(&self, r: u32) -> &[u32] {
        &self.targets[self.offsets[r as usize] as usize..self.offsets[r as usize + 1] as usize]
    }

    /// The quotient of `labels` (one label in `0..k` per node): one entry
    /// `from -> to` per graph edge crossing two labels, rows filled in
    /// node order, and each label's in-degree (entries targeting it) in
    /// `indegree`. Parallel edges are kept — Kahn and Tarjan are
    /// indifferent to them — so this is one pass over the edges, one over
    /// the crossing ones, and no sort.
    pub(crate) fn build_quotient(
        &mut self,
        graph: &Graph,
        labels: &[u32],
        k: usize,
        indegree: &mut Vec<u32>,
    ) {
        self.offsets.clear();
        self.offsets.resize(k + 2, 0);
        indegree.clear();
        indegree.resize(k, 0);
        // The crossing edges, in node order, are kept as pairs, so the
        // fill scatters them without walking the graph again.
        self.pairs.clear();
        for (u, &from) in labels.iter().enumerate() {
            for &c in graph.consumers(NodeId::from_index(u)) {
                let to = labels[c.index()];
                if to != from {
                    self.offsets[from as usize + 2] += 1;
                    indegree[to as usize] += 1;
                    self.pairs.push((from, to));
                }
            }
        }
        // Prefix sum: offsets[r + 1] becomes row r's write cursor, which
        // the fill advances to row r's end (= row r + 1's start).
        for r in 2..self.offsets.len() {
            self.offsets[r] += self.offsets[r - 1];
        }
        self.targets.clear();
        self.targets.resize(self.pairs.len(), 0);
        for &(from, to) in &self.pairs {
            let cursor = &mut self.offsets[from as usize + 1];
            self.targets[*cursor as usize] = to;
            *cursor += 1;
        }
        self.offsets.truncate(k + 1);
    }

    /// Sorts every row and drops parallel edges, compacting in place.
    fn sort_dedup_rows(&mut self) {
        let mut write = 0usize;
        let mut start = 0usize;
        for r in 0..self.rows() {
            let end = self.offsets[r + 1] as usize;
            let row = &mut self.targets[start..end];
            row.sort_unstable();
            let row_start = write;
            for i in start..end {
                let t = self.targets[i];
                if write == row_start || self.targets[write - 1] != t {
                    self.targets[write] = t;
                    write += 1;
                }
            }
            self.offsets[r + 1] = write as u32;
            start = end;
        }
        self.targets.truncate(write);
    }

    /// Writes the reversed edges into `out` (a counting sort by target;
    /// rows come out ascending when this one's rows are visited in order).
    fn transpose_into(&self, out: &mut Csr) {
        let k = self.rows();
        out.offsets.clear();
        out.offsets.resize(k + 2, 0);
        for &t in &self.targets {
            out.offsets[t as usize + 2] += 1;
        }
        for r in 2..out.offsets.len() {
            out.offsets[r] += out.offsets[r - 1];
        }
        out.targets.clear();
        out.targets.resize(self.targets.len(), 0);
        for from in 0..k as u32 {
            for &t in self.row(from) {
                let cursor = &mut out.offsets[t as usize + 1];
                out.targets[*cursor as usize] = from;
                *cursor += 1;
            }
        }
        out.offsets.truncate(k + 1);
    }
}

/// Reusable scratch of an iterative Tarjan SCC search.
#[derive(Debug, Default)]
pub(crate) struct Tarjan {
    index: Vec<u32>,
    lowlink: Vec<u32>,
    on_stack: Vec<bool>,
    stack: Vec<u32>,
    /// Explicit DFS: (vertex, next child position).
    call: Vec<(u32, usize)>,
}

impl Tarjan {
    /// Bytes of heap capacity owned.
    pub(crate) fn bytes(&self) -> u64 {
        let u32s = self.index.capacity() + self.lowlink.capacity() + self.stack.capacity();
        (u32s * std::mem::size_of::<u32>()
            + self.on_stack.capacity()
            + self.call.capacity() * std::mem::size_of::<(u32, usize)>()) as u64
    }

    /// Labels every vertex of `graph` with its strongly connected
    /// component, numbered in completion order (reverse topological order
    /// of the condensation), and returns the component count. DFS roots
    /// ascend and children follow row order.
    pub(crate) fn run(&mut self, graph: &Csr, labels: &mut Vec<u32>) -> usize {
        let k = graph.rows();
        self.index.clear();
        self.index.resize(k, u32::MAX);
        self.lowlink.clear();
        self.lowlink.resize(k, 0);
        self.on_stack.clear();
        self.on_stack.resize(k, false);
        self.stack.clear();
        self.call.clear();
        labels.clear();
        labels.resize(k, 0);
        let mut next_index = 0u32;
        let mut count = 0u32;
        for start in 0..k as u32 {
            if self.index[start as usize] != u32::MAX {
                continue;
            }
            self.visit(start, &mut next_index);
            while let Some(&mut (v, ref mut child)) = self.call.last_mut() {
                let succs = graph.row(v);
                if *child < succs.len() {
                    let w = succs[*child];
                    *child += 1;
                    if self.index[w as usize] == u32::MAX {
                        self.visit(w, &mut next_index);
                    } else if self.on_stack[w as usize] {
                        self.lowlink[v as usize] =
                            self.lowlink[v as usize].min(self.index[w as usize]);
                    }
                } else {
                    self.call.pop();
                    if let Some(&(parent, _)) = self.call.last() {
                        self.lowlink[parent as usize] =
                            self.lowlink[parent as usize].min(self.lowlink[v as usize]);
                    }
                    if self.lowlink[v as usize] == self.index[v as usize] {
                        while let Some(w) = self.stack.pop() {
                            self.on_stack[w as usize] = false;
                            labels[w as usize] = count;
                            if w == v {
                                break;
                            }
                        }
                        count += 1;
                    }
                }
            }
        }
        count as usize
    }

    /// Numbers `v` and pushes it onto both stacks.
    fn visit(&mut self, v: u32, next_index: &mut u32) {
        self.index[v as usize] = *next_index;
        self.lowlink[v as usize] = *next_index;
        *next_index += 1;
        self.stack.push(v);
        self.on_stack[v as usize] = true;
        self.call.push((v, 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_quotient_is_a_path() {
        let g = cocco_graph::models::chain(3);
        let p = Partition::from_assignment(vec![0, 0, 1, 2]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.num_subgraphs(), 3);
        assert_eq!(q.topo_order(), Some(vec![0, 1, 2]));
        assert_eq!(q.succs(0), &[1]);
        assert_eq!(q.preds(2), &[1]);
    }

    #[test]
    fn cycle_detected_by_topo_and_scc() {
        let g = cocco_graph::models::diamond(); // input,a,l,r,add
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let q = Quotient::build(&g, &p);
        assert!(q.topo_order().is_none());
        let sccs = q.sccs();
        // {0, 1} form one SCC.
        assert!(sccs.iter().any(|s| s == &[0, 1]));
    }

    #[test]
    fn sccs_of_dag_are_singletons() {
        let g = cocco_graph::models::googlenet();
        let p = Partition::depth_groups(&g, 4);
        let q = Quotient::build(&g, &p);
        let sccs = q.sccs();
        assert_eq!(sccs.len(), q.num_subgraphs());
        assert!(sccs.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn sparse_ids_are_compacted() {
        let g = cocco_graph::models::chain(2);
        let p = Partition::from_assignment(vec![10, 10, 99]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.num_subgraphs(), 2);
        assert_eq!(q.compact_id(10), 0);
        assert_eq!(q.compact_id(99), 1);
        // Ids far beyond the node count take the sorted-copy path.
        let p = Partition::from_assignment(vec![u32::MAX - 1, u32::MAX - 1, 7]);
        let q = Quotient::build(&g, &p);
        assert_eq!(q.compact_id(7), 0);
        assert_eq!(q.compact_id(u32::MAX - 1), 1);
        assert_eq!(q.succs(1), &[0]);
    }

    #[test]
    fn topo_tie_break_is_deterministic() {
        // Two independent branches: order must follow smallest member id.
        let g = cocco_graph::models::diamond();
        let p = Partition::from_assignment(vec![0, 0, 1, 2, 3]);
        let q = Quotient::build(&g, &p);
        let order = q.topo_order().unwrap();
        assert_eq!(order[0], 0);
        // l (node 2) before r (node 3).
        assert_eq!(order[1], q.compact_id(1));
        assert_eq!(order[2], q.compact_id(2));
    }

    #[test]
    fn matches_the_nested_reference_on_random_assignments() {
        use crate::repair::reference::RefQuotient;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            for _ in 0..8 {
                let k = rng.gen_range(1..=24u32);
                let spread = rng.gen_range(1..=3u32);
                let assignment: Vec<u32> =
                    (0..g.len()).map(|_| rng.gen_range(0..k) * spread).collect();
                let p = Partition::from_assignment(assignment);
                let (q, r) = (Quotient::build(&g, &p), RefQuotient::build(&g, &p));
                assert_eq!(q.num_subgraphs(), r.num_subgraphs(), "{name}");
                for c in 0..q.num_subgraphs() as u32 {
                    assert_eq!(q.succs(c), r.succs(c), "{name}: succs of {c}");
                    assert_eq!(q.preds(c), r.preds(c), "{name}: preds of {c}");
                }
                for &id in p.assignment() {
                    assert_eq!(q.compact_id(id), r.compact_id(id), "{name}");
                }
                assert_eq!(q.topo_order(), r.topo_order(), "{name}");
                assert_eq!(q.sccs(), r.sccs(), "{name}");
            }
        }
    }
}
