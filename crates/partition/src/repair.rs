//! Validity repair: connectivity splits, SCC merges and in-situ capacity
//! splits (paper §4.4.4).
//!
//! [`repair_with_delta`] and [`repair_seeded`] record, into a
//! [`PartitionDelta`], every node whose subgraph *membership set* repair
//! changed — the change record a hinted offspring's repair is seeded from
//! (see [`ParentSeed`]). Renumbering alone (canonicalization) emits no
//! dirt: node-level deltas survive id remapping by construction.
//!
//! All passes share one dense [`RepairScratch`]: per-node labels, a
//! union-find, one compressed-sparse-row quotient and a flat member
//! layout. The scratch outlives the call — the evaluation engine keeps one
//! in every worker slot — so a warmed repair allocates nothing but the
//! partition it returns. A connectivity pass labels weakly connected
//! components in first-node order, builds one quotient over them and runs
//! Kahn with ties broken by label — which is the smallest-member rule of
//! [`Quotient::topo_order`](crate::Quotient::topo_order), so Kahn's order
//! *is* the canonical renumbering. Only a cyclic quotient pays for an SCC
//! merge and another pass.
//!
//! Capacity splits run without rounds: a set that fails `fits` is halved,
//! and the weakly connected components of each half are checked the same
//! way, recursively. A piece's fate depends only on its own member set, so
//! the final sets and the recorded dirt are those the paper's
//! round-by-round splitting reaches; only the order of the `fits` calls
//! differs, and `fits` is pure. The result is relabelled and ranked once.
//!
//! Every repair leaves the result's flat layout, in execution order, and
//! each subgraph's [`NodeSetFp`] in the scratch
//! ([`RepairScratch::layout`], [`RepairScratch::fingerprints`]), which is
//! what scoring reads, so a repaired candidate is never laid out twice.
//!
//! A candidate derived from a valid parent states what the parent proved
//! through a [`ParentSeed`]: its clean subgraphs are connected, and may be
//! known to fit. The seeded passes skip that work and return the same
//! partition and delta; a fitted candidate with a clean delta is the
//! parent itself and skips repair altogether.

use crate::delta::PartitionDelta;
use crate::layout::{LayoutArena, PartitionLayout};
use crate::partition::Partition;
use crate::quotient::{compact_ids_into, Csr, Tarjan};
use cocco_graph::{Graph, NodeId, NodeSetFp};
use std::mem::size_of;

/// Restores validity after arbitrary assignment edits:
///
/// 1. split every subgraph into its weakly-connected components;
/// 2. merge each quotient SCC into one subgraph — the SCC's members are
///    mutually reachable through each other's edges, so the merged subgraph
///    stays connected while the quotient becomes acyclic;
/// 3. iterate (an SCC merge can join components that a later split leaves
///    untouched, so one extra pass settles the fixpoint);
/// 4. canonicalize ids into execution order;
/// 5. split every subgraph whose footprint check fails, using the paper's
///    in-situ `split-subgraph`: the subgraph is halved along the
///    topological order (never creating quotient cycles) and each half is
///    split into its weakly connected components, which are checked in
///    turn, until every piece fits or is a single node.
///
/// The result satisfies [`Partition::validate`] and every multi-node
/// subgraph satisfies `fits`. `fits` receives the (ascending) member list
/// of one subgraph. It must be pure: calls may come in any order, and a
/// member set whose answer is already known is not asked again.
///
/// # Examples
///
/// ```
/// use cocco_partition::{repair, Partition};
///
/// let g = cocco_graph::models::diamond();
/// // Invalid: quotient cycle between subgraphs 0 and 1.
/// let broken = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
/// let fixed = repair(&g, broken, &|_| true);
/// assert!(fixed.validate(&g).is_ok());
/// ```
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
    repair_seeded(graph, partition, fits, delta, None)
}

/// What the repair of a candidate may take from the valid parent it was
/// derived from.
///
/// A seed is sound only together with a `delta` that satisfies the
/// member-set invariant of [`PartitionDelta`] relative to that parent:
/// every subgraph with no dirty node is then one of the parent's
/// subgraphs.
///
/// A seeded candidate whose delta is **clean** must moreover *be* the
/// parent's partition, label for label, as repair returned it. A
/// [`Fitted`](Self::Fitted) candidate with a clean delta is returned
/// untouched on that promise (debug builds check it against the full
/// pipeline). Operators that leave the partition alone keep it by
/// construction; one that rebuilds an assignment whose member sets all
/// equal the parent's (a crossover can) must hand over the parent's
/// partition instead.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ParentSeed {
    /// Every clean subgraph is a parent subgraph, hence connected, so the
    /// connectivity pass looks for components inside dirty subgraphs only.
    Connected,
    /// As [`Connected`](Self::Connected), and every clean multi-node
    /// subgraph is known to satisfy `fits` (say, the parent's sets fitted a
    /// buffer no larger than this candidate's), so capacity does not ask
    /// about it again.
    Fitted,
}

/// [`repair_with_delta`] for a candidate derived from a valid parent.
/// `seed` states what the parent proved (`None` repairs from scratch).
/// The partition and the recorded delta equal [`repair_with_delta`]'s; a
/// seed only skips `fits` calls and union work whose outcome it already
/// knows. Runs on a fresh [`RepairScratch`]; hot loops keep one and call
/// [`RepairScratch::repair`].
///
/// # Panics
///
/// Panics if the partition or the delta does not cover the graph.
pub fn repair_seeded(
    graph: &Graph,
    partition: Partition,
    fits: &dyn Fn(&[NodeId]) -> bool,
    delta: &mut PartitionDelta,
    seed: Option<ParentSeed>,
) -> Partition {
    RepairScratch::new().repair(graph, partition, fits, delta, seed)
}

/// The buffers of repair, reused across calls, and what the last call
/// hands on: the flat layout of its result and each subgraph's
/// fingerprint. Every pass overwrites what it reads, so one scratch serves
/// graphs of any size in any order.
///
/// # Examples
///
/// ```
/// use cocco_graph::NodeSetFp;
/// use cocco_partition::{Partition, PartitionDelta, RepairScratch};
///
/// let g = cocco_graph::models::diamond();
/// let mut scratch = RepairScratch::new();
/// let mut delta = PartitionDelta::all(g.len());
/// let broken = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
/// let fixed = scratch.repair(&g, broken, &|_| true, &mut delta, None);
/// assert_eq!(scratch.layout().to_nested(), fixed.subgraphs());
/// let fps: Vec<NodeSetFp> = fixed.subgraphs().iter().map(|m| NodeSetFp::of_members(m)).collect();
/// assert_eq!(scratch.fingerprints(), fps);
/// ```
#[derive(Debug, Default)]
pub struct RepairScratch {
    /// A pass's new label per node (components, before renumbering).
    comp: Vec<u32>,
    /// Union-find forest; every root is its component's smallest node.
    parent: Vec<u32>,
    /// Per-label scratch: first component or node seen, label map, SCC
    /// size, or a half's component sizes.
    first: Vec<u32>,
    /// Per-label flag: the subgraph split, or holds a dirty node.
    flag: Vec<bool>,
    /// Distinct input ids and the direct-indexed table compacting them.
    originals: Vec<u32>,
    table: Vec<u32>,
    quotient: Csr,
    indegree: Vec<u32>,
    ready: ReadySet,
    /// Execution position per component label.
    rank: Vec<u32>,
    tarjan: Tarjan,
    scc: Vec<u32>,
    /// Flat member layout of the labels (labels are dense, so subgraph `s`
    /// of the layout is label `s`); after a call, the result's layout.
    layout: LayoutArena,
    /// Fingerprint per layout position of the result.
    fps: Vec<NodeSetFp>,
    /// Member lists of the pieces one capacity split is working on.
    pieces: Vec<NodeId>,
    /// Counting-sort buffer of one half's components.
    sorted: Vec<NodeId>,
    /// `(start, end)` ranges of `pieces` that failed `fits`.
    failed: Vec<(u32, u32)>,
    /// Calls that returned a fitted, clean candidate untouched.
    skips: u64,
}

impl RepairScratch {
    /// An empty scratch (the first calls grow it to the graph's size).
    pub fn new() -> Self {
        Self::default()
    }

    /// Repairs `partition` as [`repair_seeded`] does, in this scratch,
    /// and leaves the result's [`layout`](Self::layout) and
    /// [`fingerprints`](Self::fingerprints) behind. A
    /// [`ParentSeed::Fitted`] candidate with a clean delta is the parent
    /// (see [`ParentSeed`]) and comes back untouched.
    ///
    /// # Panics
    ///
    /// Panics if the partition or the delta does not cover the graph.
    pub fn repair(
        &mut self,
        graph: &Graph,
        partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
        seed: Option<ParentSeed>,
    ) -> Partition {
        assert_eq!(delta.len(), graph.len(), "delta does not cover the graph");
        assert_eq!(
            partition.len(),
            graph.len(),
            "partition does not cover the graph"
        );
        if seed == Some(ParentSeed::Fitted) && delta.is_clean() {
            #[cfg(debug_assertions)]
            {
                let mut full_delta = delta.clone();
                let full = RepairScratch::new().run(
                    graph,
                    partition.clone(),
                    &|_| true,
                    &mut full_delta,
                    seed,
                );
                assert_eq!(
                    full, partition,
                    "a fitted candidate with a clean delta is not its repaired parent"
                );
                assert!(full_delta.is_clean(), "the parent's repair moved a node");
            }
            self.skips += 1;
            self.describe(&partition);
            return partition;
        }
        self.run(graph, partition, fits, delta, seed)
    }

    /// The full pipeline: connectivity, then capacity, then the hand-over.
    fn run(
        &mut self,
        graph: &Graph,
        partition: Partition,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
        seed: Option<ParentSeed>,
    ) -> Partition {
        let n = graph.len();
        let mut ids = partition.into_assignment();
        // The passes index per-label arrays by input id, so only ids too
        // sparse for that are compacted first.
        let max = ids.iter().copied().max().map_or(0, |m| m as usize);
        let k = if max > 4 * n + 64 {
            compact_ids_into(&mut ids, &mut self.originals, &mut self.table);
            self.originals.len()
        } else {
            max + 1
        };
        self.comp.clear();
        self.comp.resize(n, 0);
        self.parent.clear();
        self.parent.resize(n, 0);
        let mut repair = Repair {
            graph,
            ids,
            k,
            s: self,
        };
        repair.connectivity(delta, seed.is_some());
        repair.capacity(fits, delta, seed == Some(ParentSeed::Fitted));
        Partition::from_assignment(repair.ids)
    }

    /// Lays out any partition (sparse ids allowed) into this scratch, with
    /// its fingerprints, as if a repair had returned it.
    pub fn describe(&mut self, partition: &Partition) {
        self.layout.build_from_partition(partition);
        self.fingerprint_layout();
    }

    /// [`describe`](Self::describe) of a repair's own labels, `0..k`.
    fn describe_dense(&mut self, ids: &[u32], k: usize) {
        self.layout.build_from_labels(ids, k);
        self.fingerprint_layout();
    }

    /// Fingerprints every subgraph of the current layout into `fps`.
    fn fingerprint_layout(&mut self) {
        self.fps.clear();
        self.fps
            .extend(self.layout.layout().iter().map(NodeSetFp::of_members));
    }

    /// The flat layout of the last result, subgraphs in execution order
    /// (empty before the first call).
    pub fn layout(&self) -> PartitionLayout<'_> {
        self.layout.layout()
    }

    /// The fingerprint of every subgraph of the last result, aligned with
    /// [`layout`](Self::layout)'s positions.
    pub fn fingerprints(&self) -> &[NodeSetFp] {
        &self.fps
    }

    /// Bytes of heap capacity the scratch owns.
    pub fn bytes(&self) -> u64 {
        let u32s = self.comp.capacity()
            + self.parent.capacity()
            + self.first.capacity()
            + self.originals.capacity()
            + self.table.capacity()
            + self.indegree.capacity()
            + self.rank.capacity()
            + self.scc.capacity()
            + 2 * self.failed.capacity();
        (u32s * size_of::<u32>()
            + self.flag.capacity()
            + (self.pieces.capacity() + self.sorted.capacity()) * size_of::<NodeId>()
            + self.fps.capacity() * size_of::<NodeSetFp>()) as u64
            + self.quotient.bytes()
            + self.ready.bytes()
            + self.tarjan.bytes()
            + self.layout.bytes()
    }

    /// Layout builds served entirely from existing capacity.
    pub fn reuses(&self) -> u64 {
        self.layout.reuses()
    }

    /// Layout builds that had to grow a buffer.
    pub fn grows(&self) -> u64 {
        self.layout.grows()
    }

    /// Repairs that returned a [`ParentSeed::Fitted`] candidate with a
    /// clean delta untouched.
    pub fn skips(&self) -> u64 {
        self.skips
    }
}

/// Kahn's ready set over labels `0..k`: a bitset that pops its smallest
/// member first — a min-heap's order without its sifting. `low` is a word
/// below which no bit is set.
#[derive(Debug, Default)]
struct ReadySet {
    words: Vec<u64>,
    low: usize,
}

impl ReadySet {
    /// Empties the set and sizes it for labels `0..k`.
    fn reset(&mut self, k: usize) {
        self.words.clear();
        self.words.resize(k.div_ceil(64), 0);
        self.low = self.words.len();
    }

    fn insert(&mut self, label: u32) {
        let word = label as usize / 64;
        self.words[word] |= 1 << (label % 64);
        self.low = self.low.min(word);
    }

    /// Removes and returns the smallest label.
    fn pop(&mut self) -> Option<u32> {
        while let Some(&word) = self.words.get(self.low) {
            if word != 0 {
                self.words[self.low] = word & (word - 1);
                return Some(self.low as u32 * 64 + word.trailing_zeros());
            }
            self.low += 1;
        }
        None
    }

    fn bytes(&self) -> u64 {
        (self.words.capacity() * size_of::<u64>()) as u64
    }
}

/// Root of `x`'s union-find tree (with path compression).
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

/// Joins the trees of `a` and `b`, keeping the smaller root.
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[ra.max(rb) as usize] = ra.min(rb);
    }
}

/// One repair call: the labels being repaired and the scratch every pass
/// shares. Labels are below `k`, and dense once connectivity has run.
struct Repair<'g, 's> {
    graph: &'g Graph,
    /// Current subgraph label per node.
    ids: Vec<u32>,
    /// A bound on the labels in `ids`: the input's largest id plus one,
    /// then the number of labels.
    k: usize,
    s: &'s mut RepairScratch,
}

impl Repair<'_, '_> {
    /// Restores connectivity and acyclicity, leaving `ids` canonical.
    /// `seeded` says every label with no dirty node is connected. An SCC
    /// merge yields connected subgraphs (the components of an SCC are
    /// joined by its quotient edges) whose quotient is the acyclic
    /// condensation, so after a merge the sets only need relabelling in
    /// first-node order and ranking.
    fn connectivity(&mut self, delta: &mut PartitionDelta, seeded: bool) {
        let k = self.split_components(delta, seeded);
        if self.renumber(k) {
            return;
        }
        self.merge_sccs(k, delta);
        let k = self.relabel_by_first_node(self.k);
        let acyclic = self.renumber(k);
        debug_assert!(acyclic, "the condensation of a quotient has a cycle");
    }

    /// Relabels the sets of `ids` (labels below `labels`) into `comp` in
    /// first-node order and returns their count.
    fn relabel_by_first_node(&mut self, labels: usize) -> usize {
        let s = &mut *self.s;
        s.first.clear();
        s.first.resize(labels, u32::MAX);
        let mut k = 0u32;
        for (c, &label) in s.comp.iter_mut().zip(&self.ids) {
            let first = &mut s.first[label as usize];
            if *first == u32::MAX {
                *first = k;
                k += 1;
            }
            *c = *first;
        }
        k as usize
    }

    /// Labels the weakly connected components of every subgraph into
    /// `comp`, numbered in first-node order, so a component's smallest
    /// member grows with its label. Marks the members of every subgraph
    /// that split; returns the component count. `seeded` says every label
    /// with no dirty node is connected: it becomes a star on its first
    /// node, and only labels holding a dirty node union along their edges.
    fn split_components(&mut self, delta: &mut PartitionDelta, seeded: bool) -> usize {
        let s = &mut *self.s;
        let ids = &self.ids;
        if seeded {
            s.first.clear();
            s.first.resize(self.k, u32::MAX);
            s.flag.clear();
            s.flag.resize(self.k, false);
            for (i, (&label, &dirty)) in ids.iter().zip(delta.flags()).enumerate() {
                s.flag[label as usize] |= dirty;
                let first = &mut s.first[label as usize];
                if *first == u32::MAX {
                    *first = i as u32;
                }
            }
            for (i, (p, &label)) in s.parent.iter_mut().zip(ids).enumerate() {
                *p = if s.flag[label as usize] {
                    i as u32
                } else {
                    s.first[label as usize]
                };
            }
        } else {
            for (i, p) in s.parent.iter_mut().enumerate() {
                *p = i as u32;
            }
        }
        for (u, &label) in ids.iter().enumerate() {
            if seeded && !s.flag[label as usize] {
                continue;
            }
            for &c in self.graph.consumers(NodeId::from_index(u)) {
                if ids[c.index()] == label {
                    union(&mut s.parent, u as u32, c.index() as u32);
                }
            }
        }
        // A root opens the next label, any other node copies its root's.
        // An input label whose nodes land in more than one component has
        // split, and all its members are marked.
        s.first.clear();
        s.first.resize(self.k, u32::MAX);
        s.flag.clear();
        s.flag.resize(self.k, false);
        let mut split = false;
        let mut k = 0u32;
        for (i, &old) in ids.iter().enumerate() {
            let root = find(&mut s.parent, i as u32);
            let c = if root == i as u32 {
                k += 1;
                k - 1
            } else {
                s.comp[root as usize]
            };
            s.comp[i] = c;
            let first = &mut s.first[old as usize];
            if *first == u32::MAX {
                *first = c;
            } else if *first != c {
                s.flag[old as usize] = true;
                split = true;
            }
        }
        if split {
            for (i, &old) in ids.iter().enumerate() {
                if s.flag[old as usize] {
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
        let s = &mut *self.s;
        s.quotient
            .build_quotient(self.graph, &s.comp, k, &mut s.indegree);
        s.ready.reset(k);
        for (c, &d) in s.indegree.iter().enumerate() {
            if d == 0 {
                s.ready.insert(c as u32);
            }
        }
        s.rank.clear();
        s.rank.resize(k, 0);
        let mut position = 0u32;
        while let Some(c) = s.ready.pop() {
            s.rank[c as usize] = position;
            position += 1;
            for &t in s.quotient.row(c) {
                s.indegree[t as usize] -= 1;
                if s.indegree[t as usize] == 0 {
                    s.ready.insert(t);
                }
            }
        }
        if position as usize != k {
            return false;
        }
        for (id, &c) in self.ids.iter_mut().zip(&s.comp) {
            *id = s.rank[c as usize];
        }
        self.k = k;
        true
    }

    /// Merges every quotient SCC of the `k` labels in `comp` (the
    /// quotient [`renumber`](Self::renumber) just built) into one
    /// subgraph, marking the members of every non-trivial SCC.
    fn merge_sccs(&mut self, k: usize, delta: &mut PartitionDelta) {
        let s = &mut *self.s;
        let count = s.tarjan.run(&s.quotient, &mut s.scc);
        debug_assert_eq!(s.scc.len(), k);
        s.first.clear();
        s.first.resize(count, 0);
        for &c in &s.scc {
            s.first[c as usize] += 1;
        }
        for (i, &c) in s.comp.iter().enumerate() {
            let scc = s.scc[c as usize];
            if s.first[scc as usize] > 1 {
                delta.touch(NodeId::from_index(i));
            }
            self.ids[i] = scc;
        }
        self.k = count;
    }

    /// The in-situ capacity splits on canonical valid labels: every
    /// multi-node subgraph that fails `fits` is halved along the
    /// topological order (members ascend, so every internal edge flows
    /// first half -> second half and no quotient cycle can close), and
    /// each half's weakly connected components are checked in turn, down
    /// to pieces that fit or are single nodes. `skip_clean` takes every
    /// subgraph with no dirty node as fitting. When anything was halved,
    /// relabels the final sets in first-node order and ranks them once.
    /// Either way, leaves the result's layout and fingerprints in the
    /// scratch.
    fn capacity(
        &mut self,
        fits: &dyn Fn(&[NodeId]) -> bool,
        delta: &mut PartitionDelta,
        skip_clean: bool,
    ) {
        let s = &mut *self.s;
        let ids = &mut self.ids;
        let layout = s.layout.build_from_labels(ids, self.k);
        // Halves and final pieces take fresh labels from `k` up.
        let mut next = self.k as u32;
        for label in 0..self.k {
            let members = layout.subgraph(label);
            if members.len() <= 1
                || (skip_clean && !members.iter().any(|&m| delta.is_dirty(m)))
                || fits(members)
            {
                continue;
            }
            s.pieces.clear();
            s.pieces.extend_from_slice(members);
            s.failed.clear();
            s.failed.push((0, members.len() as u32));
            while let Some((start, end)) = s.failed.pop() {
                let (start, end) = (start as usize, end as usize);
                delta.touch_members(&s.pieces[start..end]);
                let mid = start + (end - start) / 2;
                for (lo, hi) in [(start, mid), (mid, end)] {
                    // The half's own label keeps its edges apart from
                    // every other set's.
                    let half = next;
                    next += 1;
                    for &m in &s.pieces[lo..hi] {
                        ids[m.index()] = half;
                        s.parent[m.index()] = m.index() as u32;
                    }
                    for &u in &s.pieces[lo..hi] {
                        for &c in self.graph.consumers(u) {
                            if ids[c.index()] == half {
                                union(&mut s.parent, u.index() as u32, c.index() as u32);
                            }
                        }
                    }
                    // Components in first-node order, their sizes in
                    // `first`.
                    s.first.clear();
                    for &m in &s.pieces[lo..hi] {
                        let i = m.index();
                        let root = find(&mut s.parent, i as u32) as usize;
                        let c = if root == i {
                            s.first.push(0);
                            s.first.len() as u32 - 1
                        } else {
                            s.comp[root]
                        };
                        s.comp[i] = c;
                        s.first[c as usize] += 1;
                    }
                    // Make each component a contiguous, still ascending
                    // run (a stable counting sort); afterwards `first[c]`
                    // is where component `c` ends.
                    if s.first.len() > 1 {
                        let mut total = 0;
                        for size in s.first.iter_mut() {
                            total += *size;
                            *size = total - *size;
                        }
                        s.sorted.clear();
                        s.sorted.resize(hi - lo, NodeId::from_index(0));
                        for &m in &s.pieces[lo..hi] {
                            let cursor = &mut s.first[s.comp[m.index()] as usize];
                            s.sorted[*cursor as usize] = m;
                            *cursor += 1;
                        }
                        s.pieces[lo..hi].copy_from_slice(&s.sorted);
                    }
                    let mut at = lo;
                    for c in 0..s.first.len() {
                        let end = lo + s.first[c] as usize;
                        let piece = &s.pieces[at..end];
                        if piece.len() > 1 && !fits(piece) {
                            s.failed.push((at as u32, end as u32));
                        } else {
                            for &m in piece {
                                ids[m.index()] = next;
                            }
                            next += 1;
                        }
                        at = end;
                    }
                }
            }
        }
        if next as usize == self.k {
            // Nothing split: the layout built above is the result's.
            s.fingerprint_layout();
            return;
        }
        // Relabel the final sets in first-node order, then rank them.
        let k = self.relabel_by_first_node(next as usize);
        let acyclic = self.renumber(k);
        debug_assert!(
            acyclic,
            "halving along the topological order closed a cycle"
        );
        self.s.describe_dense(&self.ids, self.k);
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
    use crate::layout::LayoutArena;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::BTreeMap;

    #[test]
    fn repairs_random_assignments() {
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..25 {
            let k = rng.gen_range(1..=20u32);
            let assignment: Vec<u32> = (0..g.len()).map(|_| rng.gen_range(0..k)).collect();
            let p = repair(&g, Partition::from_assignment(assignment), &|_| true);
            assert!(p.validate(&g).is_ok());
        }
    }

    #[test]
    fn scc_merge_preserves_connectivity() {
        let g = cocco_graph::models::diamond();
        // Cycle: {input,a,l,add} vs {r}.
        let p = Partition::from_assignment(vec![0, 0, 0, 1, 0]);
        let fixed = repair(&g, p, &|_| true);
        assert!(fixed.validate(&g).is_ok());
        // The cycle can only be fixed by merging: one subgraph remains.
        assert_eq!(fixed.num_subgraphs(), 1);
    }

    #[test]
    fn oversized_split_terminates_at_singletons() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Nothing fits: must end fully split.
        let fixed = repair(&g, p, &|_| false);
        assert!(fixed.validate(&g).is_ok());
        assert_eq!(fixed.num_subgraphs(), g.len());
    }

    #[test]
    fn oversized_split_respects_fitting_subgraphs() {
        let g = cocco_graph::models::chain(7);
        let p = Partition::whole(g.len());
        // Subgraphs of <= 3 nodes "fit".
        let fixed = repair(&g, p, &|m| m.len() <= 3);
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
        let fixed = repair_with_delta(&g, p, &|_| true, &mut delta);
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
        let fixed = repair_with_delta(&g, p, &|m| m.len() <= 2 || m.contains(&first), &mut delta);
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

    /// How often each member set was asked.
    fn tally(calls: &[Vec<NodeId>]) -> BTreeMap<&[NodeId], usize> {
        let mut counts = BTreeMap::new();
        for set in calls {
            *counts.entry(set.as_slice()).or_insert(0) += 1;
        }
        counts
    }

    /// Asserts `calls` asks no member set more often than `reference`
    /// does, and returns the reference's sets `calls` never asked. `fits`
    /// is pure, so the order of the calls is unobservable.
    fn unasked(
        calls: &[Vec<NodeId>],
        reference: &[Vec<NodeId>],
        context: &str,
    ) -> Vec<Vec<NodeId>> {
        let want = tally(reference);
        for (set, n) in tally(calls) {
            let allowed = want.get(set).copied().unwrap_or(0);
            assert!(
                n <= allowed,
                "{context}: fits asked {set:?} {n} times, the reference {allowed}"
            );
        }
        let got = tally(calls);
        want.into_keys()
            .filter(|set| !got.contains_key(set))
            .map(<[NodeId]>::to_vec)
            .collect()
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
        // One scratch across every model, as an engine slot keeps it.
        let mut scratch = RepairScratch::new();
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
                    let got = scratch.repair(&g, p.clone(), &fits_new, &mut d_new, None);
                    let want = reference::repair_with_delta(&g, p.clone(), &fits_ref, &mut d_ref);
                    assert_eq!(got, want, "{context}: partitions differ");
                    assert_handed_over(&scratch, &got, &context);
                    assert_eq!(d_new, d_ref, "{context}: deltas differ");
                    let unasked = unasked(&calls.borrow(), &ref_calls.borrow(), &context);
                    assert!(unasked.is_empty(), "{context}: never asked {unasked:?}");
                    skipped += ref_calls.borrow().len() - calls.borrow().len();

                    let (mut c_new, mut c_ref) = (
                        PartitionDelta::clean(g.len()),
                        PartitionDelta::clean(g.len()),
                    );
                    assert_eq!(
                        repair_with_delta(&g, p.clone(), &|_| true, &mut c_new),
                        reference::repair_connectivity_with_delta(&g, p.clone(), &mut c_ref),
                        "{context}: connectivity repair differs"
                    );
                    assert_eq!(c_new, c_ref, "{context}: connectivity deltas differ");

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

    #[test]
    fn seeded_repair_matches_the_reference_on_parent_walks() {
        type Fits<'a> = &'a dyn Fn(&[NodeId]) -> bool;
        // (case, the parent's predicate, the child's predicate, the seed):
        // an equal or looser predicate may skip clean sets, a stricter one
        // may only trust their connectivity.
        let cases: [(&str, Fits, Fits, ParentSeed); 5] = [
            ("hashed", &hashed_fits, &hashed_fits, ParentSeed::Fitted),
            (
                "cap6",
                &|m| m.len() <= 6,
                &|m| m.len() <= 6,
                ParentSeed::Fitted,
            ),
            (
                "grow",
                &|m| m.len() <= 4,
                &|m| m.len() <= 9,
                ParentSeed::Fitted,
            ),
            (
                "shrink",
                &|m| m.len() <= 9,
                &|m| m.len() <= 4,
                ParentSeed::Connected,
            ),
            ("always", &|_| true, &|_| true, ParentSeed::Fitted),
        ];
        let mut rng = StdRng::seed_from_u64(0x005e_eded);
        let (mut skipped, mut parents_returned) = (0, 0);
        let mut scratch = RepairScratch::new();
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            for (case, parent_fits, child_fits, seed) in cases {
                let mut parent = repair(&g, Partition::connected_groups(&g, 4), parent_fits);
                for step in 0..12 {
                    let context = format!("{name}/{case}/step {step}");
                    let mut child = parent.clone();
                    edit(&g, &mut child, &mut rng);
                    // The exact member-set delta, sometimes with extra dirt:
                    // an over-marked delta must still give the same result.
                    let mut delta = PartitionDelta::between(&parent, &child);
                    if rng.gen_bool(0.3) {
                        delta.touch(NodeId::from_index(rng.gen_range(0..g.len())));
                    }
                    // The clean-delta contract: a clean child is the parent.
                    if delta.is_clean() {
                        child = parent.clone();
                        parents_returned += 1;
                    }
                    let (mut d_new, mut d_ref) = (delta.clone(), delta);
                    let (calls, ref_calls) = (RefCell::new(Vec::new()), RefCell::new(Vec::new()));
                    let fits_new = |m: &[NodeId]| {
                        calls.borrow_mut().push(m.to_vec());
                        child_fits(m)
                    };
                    let fits_ref = |m: &[NodeId]| {
                        ref_calls.borrow_mut().push(m.to_vec());
                        child_fits(m)
                    };
                    let got = scratch.repair(&g, child.clone(), &fits_new, &mut d_new, Some(seed));
                    let want = reference::repair_with_delta(&g, child, &fits_ref, &mut d_ref);
                    assert_eq!(got, want, "{context}: partitions differ");
                    assert_handed_over(&scratch, &got, &context);
                    assert_eq!(d_new, d_ref, "{context}: deltas differ");
                    let unasked = unasked(&calls.borrow(), &ref_calls.borrow(), &context);
                    for set in &unasked {
                        assert!(
                            seed == ParentSeed::Fitted && child_fits(set),
                            "{context}: skipped {set:?}, which does not fit"
                        );
                    }
                    skipped += unasked.len();
                    // The next parent is valid under its own predicate.
                    parent = repair(&g, got, parent_fits);
                }
            }
        }
        assert!(skipped > 0, "no clean set's fits call was skipped");
        assert!(
            parents_returned > 0,
            "no walk step left the parent as it was"
        );
    }

    /// Asserts `scratch` handed over `partition`'s flat layout and the
    /// fingerprint of each of its subgraphs.
    fn assert_handed_over(scratch: &RepairScratch, partition: &Partition, context: &str) {
        let mut arena = LayoutArena::new();
        let layout = arena.build_from_partition(partition);
        assert_eq!(scratch.layout(), layout, "{context}: layouts differ");
        let fps: Vec<NodeSetFp> = layout.iter().map(NodeSetFp::of_members).collect();
        assert_eq!(
            scratch.fingerprints(),
            fps,
            "{context}: fingerprints differ"
        );
    }

    /// A crossover child in the shape of the GA's (paper Fig. 9b): each
    /// undecided node, in order, reproduces the whole subgraph it has in a
    /// random parent; a collision makes the undecided rest a new subgraph
    /// or joins it to a decided member's.
    fn crossover(dad: &Partition, mom: &Partition, rng: &mut StdRng) -> Partition {
        const UNDECIDED: u32 = u32::MAX;
        let n = dad.len();
        let mut child = vec![UNDECIDED; n];
        let mut next = 0;
        for v in 0..n {
            if child[v] != UNDECIDED {
                continue;
            }
            let parent = if rng.gen_bool(0.5) { dad } else { mom }.assignment();
            let group: Vec<usize> = (0..n).filter(|&u| parent[u] == parent[v]).collect();
            let decided: Vec<u32> = group
                .iter()
                .map(|&u| child[u])
                .filter(|&c| c != UNDECIDED)
                .collect();
            let target = if decided.is_empty() || rng.gen_bool(0.5) {
                next += 1;
                next - 1
            } else {
                decided[rng.gen_range(0..decided.len())]
            };
            for &u in &group {
                if child[u] == UNDECIDED {
                    child[u] = target;
                }
            }
        }
        Partition::from_assignment(child)
    }

    #[test]
    fn seeded_repair_of_crossover_children_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(0x0c40_55ed);
        let mut scratch = RepairScratch::new();
        let (mut dads_returned, mut repaired) = (0, 0);
        for (name, build) in cocco_graph::models::registry() {
            let g = build();
            let fits = |m: &[NodeId]| hashed_fits(m) && m.len() <= 12;
            let mut parents: Vec<Partition> = (2..6)
                .map(|l| repair(&g, Partition::connected_groups(&g, l), &fits))
                .collect();
            for step in 0..16 {
                let context = format!("{name}/step {step}");
                let dad = rng.gen_range(0..parents.len());
                // Identical parents breed a child with the dad's member
                // sets under first-node labels: a clean delta.
                let mom = if rng.gen_bool(0.3) {
                    dad
                } else {
                    rng.gen_range(0..parents.len())
                };
                let mut child = crossover(&parents[dad], &parents[mom], &mut rng);
                let mut delta = PartitionDelta::between(&parents[dad], &child);
                if delta.is_clean() {
                    child = parents[dad].clone();
                    dads_returned += 1;
                } else {
                    repaired += 1;
                }
                let mut d_ref = delta.clone();
                let got = scratch.repair(
                    &g,
                    child.clone(),
                    &fits,
                    &mut delta,
                    Some(ParentSeed::Fitted),
                );
                let want = reference::repair_with_delta(&g, child, &fits, &mut d_ref);
                assert_eq!(got, want, "{context}: partitions differ");
                assert_eq!(delta, d_ref, "{context}: deltas differ");
                assert_handed_over(&scratch, &got, &context);
                parents[dad] = got;
            }
        }
        assert!(
            dads_returned > 0 && repaired > 0,
            "{dads_returned} clean, {repaired} repaired"
        );
    }

    #[test]
    fn one_scratch_serves_graphs_of_any_size_in_any_order() {
        let mut rng = StdRng::seed_from_u64(0x5c7a);
        let mut scratch = RepairScratch::new();
        use cocco_graph::models::{diamond, nasnet, randwire_a};
        for g in [diamond(), nasnet(), randwire_a(), diamond()] {
            let name = g.name().to_string();
            for _ in 0..6 {
                let k = rng.gen_range(1..=24u32);
                let p =
                    Partition::from_assignment((0..g.len()).map(|_| rng.gen_range(0..k)).collect());
                let fits = |m: &[NodeId]| m.len() <= 7;
                let (mut d_reused, mut d_fresh) =
                    (PartitionDelta::all(g.len()), PartitionDelta::all(g.len()));
                let mut fresh = RepairScratch::new();
                let reused = scratch.repair(&g, p.clone(), &fits, &mut d_reused, None);
                assert_eq!(
                    reused,
                    fresh.repair(&g, p, &fits, &mut d_fresh, None),
                    "{name}"
                );
                assert_eq!(d_reused, d_fresh, "{name}");
                assert_eq!(scratch.layout(), fresh.layout(), "{name}");
                assert_eq!(scratch.fingerprints(), fresh.fingerprints(), "{name}");
            }
        }
    }

    #[test]
    fn bitset_ready_set_pops_in_heap_order_past_one_word() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Kahn's discipline: each label enters at most once, and may enter
        // below labels already popped.
        let mut rng = StdRng::seed_from_u64(0xb175);
        let mut ready = ReadySet::default();
        for k in [65usize, 130, 200] {
            ready.reset(k);
            let mut heap = BinaryHeap::new();
            let mut unseen: Vec<u32> = (0..k as u32).collect();
            let mut popped = Vec::new();
            while !unseen.is_empty() || !heap.is_empty() {
                for _ in 0..rng.gen_range(0..4) {
                    if !unseen.is_empty() {
                        let label = unseen.swap_remove(rng.gen_range(0..unseen.len()));
                        ready.insert(label);
                        heap.push(Reverse(label));
                    }
                }
                let want = heap.pop().map(|Reverse(label)| label);
                assert_eq!(ready.pop(), want, "k = {k}");
                popped.extend(want);
            }
            assert_eq!(popped.len(), k);
            assert!(popped.iter().any(|&label| label >= 64));
        }
        // On whole graphs: the canonical order of singleton labels (over
        // 64 of them) is the heap-ordered topological order.
        for name in ["nasnet", "randwire-a", "resnet152"] {
            let g = cocco_graph::models::by_name(name).unwrap();
            let singletons = Partition::singletons(g.len());
            let order = crate::Quotient::build(&g, &singletons)
                .topo_order()
                .unwrap();
            let mut by_rank = vec![0u32; g.len()];
            for (rank, &label) in order.iter().enumerate() {
                by_rank[label as usize] = rank as u32;
            }
            let fixed = repair(
                &g,
                Partition::from_assignment((0..g.len() as u32).rev().collect()),
                &|_| true,
            );
            assert_eq!(fixed.assignment(), by_rank, "{name}");
        }
    }
}
