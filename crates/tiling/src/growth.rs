//! Producer-side growth of a subgraph's stage 1–2 tiling (paper §3.1).
//!
//! A node's tiling depends only on its *member consumers* (stage 2 runs
//! backward from the outputs). So if every node joins the subgraph after
//! every member that consumes it, a member's tiling is final the moment it
//! joins, and only the boundary producers — the non-members feeding the
//! subgraph — ever need re-tiling, when a new consumer of theirs joins.
//!
//! Descending id order satisfies the contract (ids are topological), and
//! so does descending depth order: a consumer is strictly deeper than each
//! of its producers. That is how the depth-ordered DP grows its runs.

use crate::error::TilingError;
use crate::flow::{propagate_strict, tile_node, Dim, RateProof, UNDERIVED};
use crate::mapper::Mapper;
use crate::scheme::NodeTiling;
use cocco_graph::{EdgeReq, Graph, NodeId};

/// [`TilingGrowth::slot`] value of a node outside the extended set.
const ABSENT: u32 = u32::MAX;
/// Mark of a member seen by [`TilingGrowth::validate`], cleared before it
/// returns.
const SEEN: u32 = u32::MAX - 1;

/// One covered node: a member, or a boundary producer
/// (`tiling.boundary_input`).
#[derive(Copy, Clone, Debug)]
struct Entry {
    id: NodeId,
    tiling: NodeTiling,
    /// Stages 1–2 left this node exact (see `tile_node`).
    exact: bool,
    /// A boundary entry a member consumer joined since it was last tiled.
    stale: bool,
    /// Per dimension (height, width), this entry's union-find parent over
    /// the member-to-member edges stage 3 walks. Member tilings are final,
    /// so these edges are too, and each is joined once (see
    /// `TilingGrowth::unjoined`).
    joined: [u32; 2],
}

/// The stage 1–2 tiling of one subgraph, grown one node at a time.
///
/// **Contract:** a node is [`push`](Self::push)ed only after every member
/// that consumes it (descending id or depth order). Then:
///
/// * a member's tiling is final when it is pushed;
/// * only boundary producers need re-tiling, which
///   [`settle`](Self::settle) does, once each, for those a new consumer
///   joined.
///
/// [`check_rates`](Self::check_rates) then decides stage 3 for the current
/// member set, and [`derive_tiling`](crate::derive_tiling) is one growth
/// over a whole set. Debug builds assert the contract.
///
/// # Examples
///
/// ```
/// use cocco_tiling::{Mapper, RateProof, TilingGrowth};
///
/// let g = cocco_graph::models::chain(4);
/// let proof = RateProof::of(&g);
/// let mut growth = TilingGrowth::new(&g, Mapper::default());
/// // Grow the last two layers backward, one producer at a time.
/// let ids: Vec<_> = g.node_ids().collect();
/// for &node in ids[3..].iter().rev() {
///     growth.push(node);
///     growth.settle(|_, _, _| {});
///     assert!(!growth.check_rates(&proof).unwrap());
/// }
/// assert_eq!(growth.members(), &[ids[4], ids[3]]);
/// assert_eq!(growth.len(), 3); // two members and their boundary producer
/// ```
#[derive(Debug)]
pub struct TilingGrowth<'g> {
    graph: &'g Graph,
    mapper: Mapper,
    /// Entry index of every graph node, or [`ABSENT`].
    slot: Vec<u32>,
    /// Members and boundary producers, in the order they were covered.
    entries: Vec<Entry>,
    /// Members in descending id order.
    members: Vec<NodeId>,
    /// Indices of stale boundary entries (some may have become members).
    stale: Vec<u32>,
    /// Entries whose last tiling was inexact.
    inexact: usize,
    /// Stage-3 check scratch: one dimension's `Entry::joined` parents,
    /// extended by the walked edges out of boundary entries, and the
    /// walked edges into them.
    parent: Vec<u32>,
    into_boundary: Vec<(u32, u32)>,
    /// The member consumers of the node last tiled: entry index and edge
    /// requirement.
    consumers: Vec<(u32, EdgeReq)>,
    /// Member-to-member edges pushed since the last stage-3 check that
    /// needed `Entry::joined`: producer and consumer entry, and whether
    /// the edge slides. A check with no walked edge into a boundary entry
    /// never joins them (the common case when a whole set is pushed at
    /// once).
    unjoined: Vec<(u32, u32, bool)>,
}

impl<'g> TilingGrowth<'g> {
    /// An empty subgraph of `graph`, tiled under `mapper`.
    pub fn new(graph: &'g Graph, mapper: Mapper) -> Self {
        Self {
            graph,
            mapper,
            slot: vec![ABSENT; graph.len()],
            entries: Vec::with_capacity(32),
            members: Vec::with_capacity(16),
            stale: Vec::with_capacity(16),
            inexact: 0,
            parent: Vec::new(),
            into_boundary: Vec::new(),
            consumers: Vec::with_capacity(8),
            unjoined: Vec::with_capacity(16),
        }
    }

    /// Checks a whole member list before it is pushed into this (empty)
    /// growth, with [`derive_scheme`](crate::derive_scheme)'s errors and
    /// precedence: the empty list, then the first id in member order that
    /// is outside the graph or repeats an earlier one.
    ///
    /// # Errors
    ///
    /// [`TilingError::EmptySubgraph`], [`TilingError::UnknownNode`] or
    /// [`TilingError::DuplicateMember`].
    pub fn validate(&mut self, members: &[NodeId]) -> Result<(), TilingError> {
        debug_assert!(self.entries.is_empty(), "validate on a grown subgraph");
        let n = self.slot.len();
        if members.is_empty() {
            return Err(TilingError::EmptySubgraph);
        }
        if members.windows(2).all(|w| w[0] < w[1]) {
            // Strictly ascending: no repeats, and unknown ids come last.
            return match members.iter().find(|m| m.index() >= n) {
                Some(&node) => Err(TilingError::UnknownNode { node }),
                None => Ok(()),
            };
        }
        let mut result = Ok(());
        let mut marked = 0;
        for &m in members {
            if m.index() >= n {
                result = Err(TilingError::UnknownNode { node: m });
                break;
            }
            if self.slot[m.index()] == SEEN {
                result = Err(TilingError::DuplicateMember { node: m });
                break;
            }
            self.slot[m.index()] = SEEN;
            marked += 1;
        }
        for &m in &members[..marked] {
            self.slot[m.index()] = ABSENT;
        }
        result
    }

    /// Adds `node`, which must be in the graph, not yet a member, and
    /// consumed by no member pushed later. Tiles it from its member
    /// consumers, covers its producers as boundary entries and marks them
    /// stale. Returns `node`'s entry index; if `node` was a boundary entry,
    /// the index is unchanged and the entry is now a member.
    pub fn push(&mut self, node: NodeId) -> usize {
        let graph = self.graph;
        debug_assert!(
            self.slot[node.index()] == ABSENT
                || self.entries[self.slot[node.index()] as usize]
                    .tiling
                    .boundary_input,
            "{node:?} pushed twice"
        );
        debug_assert!(
            graph.producers(node).iter().all(|&p| !self.is_member(p)),
            "{node:?} pushed after a member that consumes it"
        );
        let (tiling, exact) = self.tile(node);
        let i = match self.slot[node.index()] {
            ABSENT => self.cover(node),
            i => i as usize,
        };
        let entry = &mut self.entries[i];
        self.inexact -= usize::from(!entry.exact);
        *entry = Entry {
            tiling,
            exact,
            stale: false,
            ..*entry
        };
        self.inexact += usize::from(!exact);
        let at = self.members.partition_point(|&m| m > node);
        self.members.insert(at, node);
        self.unjoined.extend(
            self.consumers
                .iter()
                .map(|&(c, req)| (i as u32, c, slides(req))),
        );
        for &p in graph.producers(node) {
            match self.slot[p.index()] {
                ABSENT => {
                    let b = self.cover(p);
                    self.stale.push(b as u32);
                }
                b => {
                    let entry = &mut self.entries[b as usize];
                    if !entry.stale {
                        entry.stale = true;
                        self.stale.push(b);
                    }
                }
            }
        }
        i
    }

    /// Stages 1–2 for `id` from its current member consumers, which stay
    /// in `consumers`.
    fn tile(&mut self, id: NodeId) -> (NodeTiling, bool) {
        let graph = self.graph;
        self.consumers.clear();
        for &c in graph.consumers(id) {
            let ci = self.slot[c.index()];
            if self
                .entries
                .get(ci as usize)
                .is_some_and(|e| !e.tiling.boundary_input)
            {
                self.consumers.push((ci, graph.edge_req(id, c)));
            }
        }
        let entries = &self.entries;
        let consumers = self
            .consumers
            .iter()
            .map(|&(c, req)| (req, entries[c as usize].tiling.delta));
        tile_node(graph.node(id).out_shape(), &self.mapper, consumers)
    }

    /// Covers `id`, a node outside the extended set, as a stale boundary
    /// entry; returns its index.
    fn cover(&mut self, id: NodeId) -> usize {
        let i = self.entries.len();
        self.slot[id.index()] = i as u32;
        self.entries.push(Entry {
            id,
            tiling: NodeTiling {
                boundary_input: true,
                ..UNDERIVED
            },
            exact: true,
            stale: true,
            joined: [i as u32; 2],
        });
        i
    }

    /// Re-tiles every stale boundary entry, calling `retiled(index, id,
    /// tiling)` for each with its new tiling.
    pub fn settle(&mut self, mut retiled: impl FnMut(usize, NodeId, &NodeTiling)) {
        for k in 0..self.stale.len() {
            let b = self.stale[k] as usize;
            if !self.entries[b].stale {
                continue; // a member now
            }
            let id = self.entries[b].id;
            let (tiling, exact) = self.tile(id);
            let entry = &mut self.entries[b];
            if entry.exact != exact {
                if exact {
                    self.inexact -= 1;
                } else {
                    self.inexact += 1;
                }
            }
            *entry = Entry {
                tiling: NodeTiling {
                    boundary_input: true,
                    ..tiling
                },
                exact,
                stale: false,
                ..*entry
            };
            retiled(b, id, &entry.tiling);
        }
        self.stale.clear();
    }

    /// Decides stage 3 for the current (settled) member set. `proof` must
    /// be [`RateProof::of`] the graph.
    ///
    /// Stage 3 never changes a tiling; it can only fail, and only in a
    /// *strict* scheme (one stages 1–2 left exact). It provably succeeds
    /// in a dimension where `proof` holds and every edge into a boundary
    /// entry that it walks joins two entries already joined by walked
    /// member-consumer edges. Stage 3 walks such an edge only backward
    /// from its boundary end, so one that joined two components could
    /// compare rates the traversal scaled independently; with none, every
    /// check stays inside one component of a consistent system.
    ///
    /// Returns `Ok(false)` when the scheme is not strict or the proof
    /// covers both dimensions. Otherwise it runs
    /// [`derive_scheme`](crate::derive_scheme)'s strict propagation over
    /// the extended set in each uncovered dimension and returns `Ok(true)`.
    ///
    /// # Errors
    ///
    /// The [`TilingError::InconsistentRates`] of
    /// [`derive_scheme`](crate::derive_scheme) on the same members.
    pub fn check_rates(&mut self, proof: &RateProof) -> Result<bool, TilingError> {
        debug_assert!(self.stale.is_empty(), "stage 3 on an unsettled tiling");
        debug_assert_eq!(
            proof.nodes(),
            self.slot.len(),
            "a rate proof of another graph"
        );
        if self.inexact > 0 {
            return Ok(false);
        }
        let unproved = Dim::BOTH.map(|dim| !(proof.consistent(dim) && self.joined(dim)));
        if unproved == [false, false] {
            return Ok(false);
        }
        let dims = Dim::BOTH.into_iter().filter(|&dim| unproved[dim as usize]);
        propagate_strict(self.graph, &self.members, &self.mapper, dims)?;
        Ok(true)
    }

    /// `true` when every edge into a boundary entry that stage 3 walks in
    /// `dim` joins two entries already joined by walked member-consumer
    /// edges: the member-to-member ones in `joined`, plus those out of
    /// boundary entries, whose tilings may have changed since the last
    /// check.
    fn joined(&mut self, dim: Dim) -> bool {
        let Self {
            graph,
            slot,
            entries,
            parent,
            into_boundary,
            unjoined,
            ..
        } = self;
        into_boundary.clear();
        for (b, entry) in entries.iter().enumerate() {
            if !entry.tiling.boundary_input {
                continue;
            }
            for &p in graph.producers(entry.id) {
                let pp = slot[p.index()];
                if pp != ABSENT
                    && walks(dim, &entries[pp as usize].tiling, &entry.tiling, || {
                        slides(graph.edge_req(p, entry.id))
                    })
                {
                    into_boundary.push((pp, b as u32));
                }
            }
        }
        if into_boundary.is_empty() {
            return true;
        }
        for (u, c, slides) in unjoined.drain(..) {
            let (u, c) = (u as usize, c as usize);
            for d in Dim::BOTH {
                if walks(d, &entries[u].tiling, &entries[c].tiling, || slides) {
                    let (a, b) = (root(entries, d, u), root(entries, d, c));
                    entries[a].joined[d as usize] = b as u32;
                }
            }
        }
        parent.clear();
        parent.extend(entries.iter().map(|e| e.joined[dim as usize]));
        for (b, entry) in entries.iter().enumerate() {
            if !entry.tiling.boundary_input {
                continue;
            }
            for &c in graph.consumers(entry.id) {
                let Some(consumer) = entries.get(slot[c.index()] as usize) else {
                    continue;
                };
                if !consumer.tiling.boundary_input
                    && walks(dim, &entry.tiling, &consumer.tiling, || {
                        slides(graph.edge_req(entry.id, c))
                    })
                {
                    let (x, y) = (find(parent, b), find(parent, slot[c.index()] as usize));
                    parent[x] = y as u32;
                }
            }
        }
        into_boundary
            .iter()
            .all(|&(p, b)| find(parent, p as usize) == find(parent, b as usize))
    }

    /// Members in descending id order.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Whether `id` is a member.
    pub fn is_member(&self, id: NodeId) -> bool {
        let i = self.slot[id.index()];
        i != ABSENT && !self.entries[i as usize].tiling.boundary_input
    }

    /// Covered nodes: members plus boundary producers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` before the first push.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The node and tiling of entry `index` (a stale boundary entry's
    /// tiling is its last one).
    pub fn entry(&self, index: usize) -> (NodeId, &NodeTiling) {
        let entry = &self.entries[index];
        (entry.id, &entry.tiling)
    }

    /// The covered nodes and their tilings, ascending by id.
    pub(crate) fn sorted_entries(&self) -> Vec<(NodeId, NodeTiling)> {
        let mut entries: Vec<_> = self.entries.iter().map(|e| (e.id, e.tiling)).collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        entries
    }
}

/// `true` when stage 3 walks an edge from `p` to `v` in `dim`: neither
/// end is fully buffered there and the edge `slides` (asked last, as it
/// may look the edge up).
fn walks(dim: Dim, p: &NodeTiling, v: &NodeTiling, slides: impl FnOnce() -> bool) -> bool {
    !dim.full(p) && !dim.full(v) && slides()
}

/// `true` for a sliding-window edge, which stage 3 walks in both
/// dimensions (a full-consumption edge in neither).
fn slides(req: EdgeReq) -> bool {
    matches!(req, EdgeReq::Sliding(_))
}

/// The root of entry `x` in `dim`'s member-to-member union-find
/// ([`Entry::joined`]), halving the path on the way.
fn root(entries: &mut [Entry], dim: Dim, mut x: usize) -> usize {
    let d = dim as usize;
    loop {
        let p = entries[x].joined[d] as usize;
        if p == x {
            return x;
        }
        let grand = entries[p].joined[d];
        entries[x].joined[d] = grand;
        x = grand as usize;
    }
}

/// The union-find root of `x`, halving the path on the way.
fn find(parent: &mut [u32], mut x: usize) -> usize {
    while parent[x] as usize != x {
        parent[x] = parent[parent[x] as usize];
        x = parent[x] as usize;
    }
    x
}
