//! The three-stage consumption-centric derivation (paper §3.1, Fig. 5).
//!
//! [`derive_scheme`] works over dense *positions* in the subgraph's
//! extended node set, the members plus their boundary producers:
//!
//! * the extended set is one ascending array of tiling entries, so
//!   position order is topological order; one per-call `u32` map takes a
//!   node id to its position (it also validates the member list, in the
//!   reference's error precedence);
//! * the member consumers of every position form one CSR whose rows are
//!   ascending and deduplicated, each edge carrying its consumption
//!   requirement;
//! * stages 1–2 fill the entries in reverse position order, and stage 3
//!   propagates `Option<Ratio>` rates by position with one reused DFS
//!   stack, in the traversal order of the `BTreeMap` derivation it
//!   replaced (so a strict run reports the same inconsistent node).
//!
//! That `BTreeMap` derivation survives verbatim as the test-only
//! `reference` module, the oracle the property tests hold the dense one
//! to, schemes and errors alike.
//!
//! Stages 1–2 are one per-node rule, `tile_node`, which the producer-side
//! [`TilingGrowth`] applies too; [`derive_tiling`] is a growth over the
//! member set, and falls back to stage 3's propagation over the extended
//! set only where the growth cannot prove that propagation succeeds.

use crate::error::TilingError;
use crate::growth::TilingGrowth;
use crate::mapper::Mapper;
use crate::ratio::{checked_lcm, gcd, lcm, Ratio};
use crate::scheme::{ExecutionScheme, NodeScheme, NodeTiling, SubgraphTiling};
use cocco_graph::{Dims2, EdgeReq, Graph, NodeId, TensorShape};

/// Per-dimension view of an [`EdgeReq`] used by the backward derivation.
#[derive(Copy, Clone, Debug)]
enum DimReq {
    /// Sliding window with kernel extent `f` and stride `s`.
    Sliding { f: u32, s: u32 },
    /// The whole producer extent must be resident.
    Full,
}

fn dim_reqs(req: EdgeReq) -> (DimReq, DimReq) {
    match req {
        EdgeReq::Full => (DimReq::Full, DimReq::Full),
        EdgeReq::Sliding(k) => (
            DimReq::Sliding {
                f: k.size.h,
                s: k.stride.h,
            },
            DimReq::Sliding {
                f: k.size.w,
                s: k.stride.w,
            },
        ),
    }
}

/// Derives the execution scheme of the subgraph formed by `members`.
///
/// The scheme covers every member plus every *boundary producer* (a node
/// outside the member set whose output is consumed inside it): boundary
/// producers occupy buffer regions too — their tiles are loaded from DRAM
/// (the "negative-numbered" input nodes of paper Figures 1 and 5).
///
/// Stage 1 uses `mapper` to size the tiles of the subgraph's output nodes
/// (members with no consumer inside the member set); stage 2 runs the
/// backward LCM derivation; stage 3 computes the co-prime `upd_num`
/// solution when one exists ([`ExecutionScheme::exact_upd`] reports whether
/// it does — clamping at tensor extents makes large-kernel subgraphs
/// inexact, in which case `upd_num` falls back to 1 per update).
///
/// # Errors
///
/// Returns an error if `members` is empty, contains duplicates or ids
/// outside `graph`, or if the update-rate system is inconsistent for a
/// subgraph that required an exact solution.
///
/// # Examples
///
/// ```
/// use cocco_tiling::{derive_scheme, Mapper};
///
/// let g = cocco_graph::models::branchy();
/// let members: Vec<_> = g.node_ids().collect();
/// let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
/// // Every member and boundary producer is covered.
/// assert_eq!(scheme.len(), g.len());
/// ```
pub fn derive_scheme(
    graph: &Graph,
    members: &[NodeId],
    mapper: &Mapper,
) -> Result<ExecutionScheme, TilingError> {
    let mut ext = Extended::build(graph, members)?;
    let mut exact = ext.derive_tiles(graph, mapper);

    // Stage 3: co-prime upd_num per dimension via rational propagation.
    let strict = exact;
    let mut scratch = UpdScratch::default();
    let mut upd = vec![Dims2::new(1, 1); ext.entries.len()];
    for dim in [Dim::H, Dim::W] {
        match propagate_rates(graph, &ext, dim, strict, &mut scratch) {
            Ok(()) => scale_upd(&ext, dim, &mut scratch, &mut upd),
            Err(e) if strict => return Err(e),
            Err(_) => exact = false,
        }
    }

    let entries = ext
        .entries
        .into_iter()
        .zip(upd)
        .map(|((id, tiling), upd_num)| (id, NodeScheme { tiling, upd_num }))
        .collect();
    Ok(ExecutionScheme::new(entries, exact))
}

/// Whether stage 3 can fail anywhere on one graph: the per-graph half of
/// the proof that lets [`derive_tiling`] skip it.
///
/// Stage 3's equations on any subgraph are a subset of the graph's whole
/// stride-rate system (`rate(p) = rate(v)·s` on every sliding edge
/// `p → v`), so where that system is consistent, so is every subgraph's.
///
/// # Examples
///
/// ```
/// use cocco_tiling::RateProof;
///
/// assert!(RateProof::of(&cocco_graph::models::resnet50()).holds());
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RateProof {
    /// Node count of the proved graph, checked by [`derive_tiling`] in
    /// debug builds.
    nodes: usize,
    /// Per dimension (height, width): the graph's stride-rate system is
    /// consistent, and its least integer solution times the largest stride
    /// fits in a `u64`, so stage 3's `Ratio` operations on any subgraph
    /// are exact.
    consistent: [bool; 2],
}

impl RateProof {
    /// Proves, per dimension, whether `graph`'s stride-rate system is
    /// consistent: one pass over its nodes and edges.
    pub fn of(graph: &Graph) -> Self {
        Self {
            nodes: graph.len(),
            consistent: [Dim::H, Dim::W].map(|dim| globally_consistent(graph, dim)),
        }
    }

    /// `true` when the system is consistent in both dimensions.
    pub fn holds(&self) -> bool {
        self.consistent == [true, true]
    }

    /// Whether the system is consistent in `dim`.
    pub(crate) fn consistent(&self, dim: Dim) -> bool {
        self.consistent[dim as usize]
    }

    /// Node count of the proved graph.
    pub(crate) fn nodes(&self) -> usize {
        self.nodes
    }
}

/// Derives the stage 1–2 [`SubgraphTiling`] of the subgraph formed by
/// `members`: Δ, x and the flags, which is all the cost model reads.
/// `proof` must be [`RateProof::of`]`(graph)`.
///
/// It grows a [`TilingGrowth`] over `members` in descending id order (any
/// member order is accepted) and returns its tiling. Stage 3 never changes
/// the tilings. It can only fail, with [`TilingError::InconsistentRates`],
/// and only in a *strict* scheme (one stage 2 left exact), so this returns
/// exactly the result of [`derive_scheme`] minus `upd_num`, errors
/// included; see [`TilingGrowth::check_rates`] for when stage 3 runs.
///
/// # Errors
///
/// Exactly the errors of [`derive_scheme`]`(graph, members, mapper)`.
///
/// # Examples
///
/// ```
/// use cocco_tiling::{derive_scheme, derive_tiling, Mapper, RateProof};
///
/// let g = cocco_graph::models::resnet50();
/// let proof = RateProof::of(&g);
/// let members: Vec<_> = g.node_ids().take(8).collect();
/// let tiling = derive_tiling(&g, &members, &Mapper::default(), &proof).unwrap();
/// let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
/// assert!(tiling.iter().zip(scheme.iter()).all(|(t, s)| *t.1 == s.1.tiling));
/// assert!(!tiling.rates_propagated());
/// ```
pub fn derive_tiling(
    graph: &Graph,
    members: &[NodeId],
    mapper: &Mapper,
    proof: &RateProof,
) -> Result<SubgraphTiling, TilingError> {
    let mut growth = TilingGrowth::new(graph, *mapper);
    growth.validate(members)?;
    let mut order = members.to_vec();
    order.sort_unstable_by(|a, b| b.cmp(a));
    for &m in &order {
        growth.push(m);
    }
    growth.settle(|_, _, _| {});
    let propagated = growth.check_rates(proof)?;
    Ok(SubgraphTiling::new(growth.sorted_entries(), propagated))
}

/// `true` when every sliding edge `p → v` of `graph` admits positive rates
/// with `rate(p) = rate(v)·s` in `dim`, and the least integer solution of
/// every weakly connected component, times the largest stride, fits in a
/// `u64`. Any checked operation that overflows fails the proof.
///
/// A subgraph's stage-3 rates relative to its traversal start are then
/// `r(u)/r(start)` of that solution `r`, so no numerator or denominator
/// exceeds the bound before [`Ratio`] reduces it.
fn globally_consistent(graph: &Graph, dim: Dim) -> bool {
    let n = graph.len();
    let mut rate: Vec<Option<Ratio>> = vec![None; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut component: Vec<usize> = Vec::new();
    let mut max_rate = 1u64;
    let mut max_stride = 1u64;
    for start in 0..n {
        if rate[start].is_some() {
            continue;
        }
        rate[start] = Some(Ratio::from_int(1));
        stack.push(start);
        component.clear();
        while let Some(u) = stack.pop() {
            component.push(u);
            let Some(ru) = rate[u] else { continue }; // stacked nodes have rates
            let id = NodeId::from_index(u);
            let forward = graph
                .consumers(id)
                .iter()
                .map(|&v| (v, graph.edge_req(id, v), false));
            let backward = graph
                .producers(id)
                .iter()
                .map(|&p| (p, graph.edge_req(p, id), true));
            for (w, req, upstream) in forward.chain(backward) {
                let Some(s) = dim.stride(req) else {
                    continue;
                };
                let s = u64::from(s.max(1));
                max_stride = max_stride.max(s);
                let rw = if upstream {
                    ru.checked_mul_int(s)
                } else {
                    ru.checked_div_int(s)
                };
                let Some(rw) = rw else { return false };
                match rate[w.index()] {
                    None => {
                        rate[w.index()] = Some(rw);
                        stack.push(w.index());
                    }
                    Some(existing) if existing != rw => return false,
                    Some(_) => {}
                }
            }
        }
        // The component's least integer solution.
        let scale = component
            .iter()
            .try_fold(1u64, |acc, &u| checked_lcm(acc, rate[u]?.den));
        let Some(scale) = scale else { return false };
        let mut all_gcd = 0u64;
        let mut largest = 0u64;
        for &u in &component {
            let Some(r) = rate[u] else { return false };
            let Some(v) = r.num.checked_mul(scale / r.den) else {
                return false;
            };
            all_gcd = gcd(all_gcd, v);
            largest = largest.max(v);
        }
        max_rate = max_rate.max(largest / all_gcd.max(1));
    }
    max_rate.checked_mul(max_stride).is_some()
}

/// A tiling entry before stages 1–2 fill it in.
pub(crate) const UNDERIVED: NodeTiling = NodeTiling {
    delta: Dims2 { h: 1, w: 1 },
    tile: Dims2 { h: 1, w: 1 },
    full_h: false,
    full_w: false,
    boundary_input: false,
    interior_consumed: false,
};

/// [`Extended::pos`] value of a node outside the extended set.
const ABSENT: u32 = u32::MAX;
/// Build-time marks in [`Extended::pos`], replaced by positions once the
/// set is sorted.
const MEMBER: u32 = u32::MAX - 1;
const BOUNDARY: u32 = u32::MAX - 2;

/// The extended node set of one subgraph, by position.
struct Extended {
    /// Members and boundary producers, ascending by id; each entry's
    /// `boundary_input` is set from the start, the rest by stages 1–2.
    entries: Vec<(NodeId, NodeTiling)>,
    /// Position of every graph node in `entries`, or [`ABSENT`].
    pos: Vec<u32>,
    /// CSR row offsets into `consumers`, one row per position.
    row_start: Vec<u32>,
    /// Member consumers of each position: `(consumer position, edge
    /// requirement)`, each row ascending and deduplicated.
    consumers: Vec<(u32, EdgeReq)>,
}

impl Extended {
    /// Validates `members` (same errors, same precedence as the reference)
    /// and lays out their extended set and member-consumer rows.
    fn build(graph: &Graph, members: &[NodeId]) -> Result<Self, TilingError> {
        if members.is_empty() {
            return Err(TilingError::EmptySubgraph);
        }
        let n = graph.len();
        let mut pos = vec![ABSENT; n];
        let mut ids: Vec<NodeId> = Vec::with_capacity(2 * members.len());
        for &m in members {
            if m.index() >= n {
                return Err(TilingError::UnknownNode { node: m });
            }
            if pos[m.index()] == MEMBER {
                return Err(TilingError::DuplicateMember { node: m });
            }
            pos[m.index()] = MEMBER;
            ids.push(m);
        }
        for &m in members {
            for &p in graph.producers(m) {
                if pos[p.index()] == ABSENT {
                    pos[p.index()] = BOUNDARY;
                    ids.push(p);
                }
            }
        }
        // Ascending ids are topological order.
        ids.sort_unstable();
        let entries: Vec<(NodeId, NodeTiling)> = ids
            .iter()
            .enumerate()
            .map(|(i, &id)| {
                let boundary_input = pos[id.index()] == BOUNDARY;
                pos[id.index()] = i as u32;
                (
                    id,
                    NodeTiling {
                        boundary_input,
                        ..UNDERIVED
                    },
                )
            })
            .collect();

        let mut ext = Self {
            row_start: Vec::with_capacity(entries.len() + 1),
            entries,
            pos,
            consumers: Vec::new(),
        };
        ext.row_start.push(0);
        let mut row: Vec<(u32, EdgeReq)> = Vec::new();
        for &u in &ids {
            row.clear();
            for &c in graph.consumers(u) {
                match ext.position(c) {
                    Some(q) if !ext.entries[q].1.boundary_input => {
                        row.push((q as u32, graph.edge_req(u, c)));
                    }
                    _ => {}
                }
            }
            row.sort_unstable_by_key(|&(q, _)| q);
            row.dedup_by_key(|&mut (q, _)| q);
            ext.consumers.extend_from_slice(&row);
            ext.row_start.push(ext.consumers.len() as u32);
        }
        Ok(ext)
    }

    /// Position of node `id`, if the extended set covers it.
    fn position(&self, id: NodeId) -> Option<usize> {
        let p = self.pos[id.index()];
        (p != ABSENT).then_some(p as usize)
    }

    /// The member consumers of position `u`.
    fn consumers(&self, u: usize) -> &[(u32, EdgeReq)] {
        &self.consumers[self.row_start[u] as usize..self.row_start[u + 1] as usize]
    }

    /// Stages 1–2: the backward pass in reverse topological (= position)
    /// order. Returns `true` when the scheme stays exact (no LCM clamped
    /// at a tensor extent, no full-consumption edge), which makes stage 3
    /// strict.
    fn derive_tiles(&mut self, graph: &Graph, mapper: &Mapper) -> bool {
        let mut exact = true;
        for u in (0..self.entries.len()).rev() {
            let id = self.entries[u].0;
            let consumers = self
                .consumers(u)
                .iter()
                .map(|&(v, req)| (req, self.entries[v as usize].1.delta));
            let (tiling, node_exact) = tile_node(graph.node(id).out_shape(), mapper, consumers);
            exact &= node_exact;
            let s = &mut self.entries[u].1;
            *s = NodeTiling {
                boundary_input: s.boundary_input,
                ..tiling
            };
        }
        exact
    }
}

/// Stages 1–2 for one node of output shape `shape`: its Δ and x from its
/// member consumers, given as each consuming edge's requirement and the
/// consumer's Δ, or the mapper's output tile when it has none. Returns
/// the tiling with `boundary_input` unset, and `false` when the node
/// breaks exactness (an LCM clamped at the tensor extent or a
/// full-consumption edge), which makes stage 3 lenient.
///
/// The one copy of the rule: [`derive_scheme`] applies it in reverse
/// position order, and [`TilingGrowth`](crate::TilingGrowth) as nodes join.
pub(crate) fn tile_node(
    shape: TensorShape,
    mapper: &Mapper,
    consumers: impl Iterator<Item = (EdgeReq, Dims2)> + Clone,
) -> (NodeTiling, bool) {
    let extent = Dims2::new(shape.h, shape.w);
    let interior_consumed = consumers.clone().next().is_some();
    let mut exact = true;
    let (delta, tile) = if !interior_consumed {
        let t = mapper.output_tile(shape);
        (t, t)
    } else {
        // Accumulate the unclamped LCM requirement per dimension; a
        // `Full` consumption edge demands the whole extent.
        let mut d = (1u64, 1u64);
        let mut full_edge = (false, false);
        for (req, vd) in consumers.clone() {
            let (rh, rw) = dim_reqs(req);
            match rh {
                DimReq::Full => full_edge.0 = true,
                DimReq::Sliding { s, .. } => {
                    d.0 = lcm(d.0, u64::from(vd.h).saturating_mul(u64::from(s)));
                }
            }
            match rw {
                DimReq::Full => full_edge.1 = true,
                DimReq::Sliding { s, .. } => {
                    d.1 = lcm(d.1, u64::from(vd.w).saturating_mul(u64::from(s)));
                }
            }
        }
        // Truncation (LCM overshooting the tensor) and full-consumption
        // edges break the exact `upd_num` relation (paper footnote on
        // the co-prime solution); natural Δ = extent does not.
        if d.0 > u64::from(extent.h) || d.1 > u64::from(extent.w) {
            exact = false;
        }
        if full_edge.0 || full_edge.1 {
            exact = false;
        }
        let dh = if full_edge.0 {
            extent.h
        } else {
            d.0.min(u64::from(extent.h)) as u32
        };
        let dw = if full_edge.1 {
            extent.w
        } else {
            d.1.min(u64::from(extent.w)) as u32
        };
        let d = Dims2::new(dh.max(1), dw.max(1));
        let mut t = d;
        for (req, _) in consumers {
            let (rh, rw) = dim_reqs(req);
            match rh {
                DimReq::Full => t.h = extent.h,
                DimReq::Sliding { f, s } => {
                    // χ = f_v(Δ(u)/s) = F + (Δ(u)/s − 1)·s = F − s + Δ(u)
                    let chi = f.saturating_sub(s).saturating_add(d.h);
                    t.h = t.h.max(chi.min(extent.h));
                }
            }
            match rw {
                DimReq::Full => t.w = extent.w,
                DimReq::Sliding { f, s } => {
                    let chi = f.saturating_sub(s).saturating_add(d.w);
                    t.w = t.w.max(chi.min(extent.w));
                }
            }
        }
        (d, t)
    };
    // Reaching the tensor extent means "fully buffered" in that dim.
    let delta_c = Dims2::new(delta.h.min(extent.h), delta.w.min(extent.w));
    let tiling = NodeTiling {
        delta: delta_c,
        tile: Dims2::new(
            tile.h.min(extent.h).max(delta_c.h),
            tile.w.min(extent.w).max(delta_c.w),
        ),
        full_h: delta.h >= extent.h,
        full_w: delta.w >= extent.w,
        boundary_input: false,
        interior_consumed,
    };
    (tiling, exact)
}

/// Stage 3's strict propagation over the extended set of `members` in
/// each of `dims`: the fallback for a consistent tiling the
/// [`RateProof`] cannot cover. Returns the first inconsistency, in the
/// traversal order of [`derive_scheme`].
pub(crate) fn propagate_strict(
    graph: &Graph,
    members: &[NodeId],
    mapper: &Mapper,
    dims: impl Iterator<Item = Dim>,
) -> Result<(), TilingError> {
    let mut ext = Extended::build(graph, members)?;
    ext.derive_tiles(graph, mapper);
    let mut scratch = UpdScratch::default();
    for dim in dims {
        propagate_rates(graph, &ext, dim, true, &mut scratch)?;
    }
    Ok(())
}

/// One of the two tiled dimensions; `as usize` indexes per-dimension
/// arrays (height first).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Dim {
    H,
    W,
}

impl Dim {
    pub(crate) const BOTH: [Dim; 2] = [Dim::H, Dim::W];

    fn of(self, d: Dims2) -> u32 {
        match self {
            Dim::H => d.h,
            Dim::W => d.w,
        }
    }

    pub(crate) fn full(self, s: &NodeTiling) -> bool {
        match self {
            Dim::H => s.full_h,
            Dim::W => s.full_w,
        }
    }

    fn set(self, d: &mut Dims2, value: u32) {
        match self {
            Dim::H => d.h = value,
            Dim::W => d.w = value,
        }
    }

    fn stride(self, req: EdgeReq) -> Option<u32> {
        match req {
            EdgeReq::Full => None,
            EdgeReq::Sliding(k) => Some(self.of(k.stride)),
        }
    }
}

/// Stage-3 buffers, reused across both dimensions.
#[derive(Default)]
struct UpdScratch {
    /// `rate(u)` by position; `None` until the traversal reaches `u`.
    rate: Vec<Option<Ratio>>,
    /// The DFS stack of positions.
    stack: Vec<u32>,
    /// `upd(u) = rate(u) / Δ(u)` by position.
    upd: Vec<Ratio>,
}

/// Propagates `rate(u) = upd(u)·Δ(u)` over every internal edge `u → v` of
/// one dimension (`rate(u) = rate(v)·s(v)`) into `scratch.rate`. In strict
/// mode an edge whose two ends already disagree is an error.
fn propagate_rates(
    graph: &Graph,
    ext: &Extended,
    dim: Dim,
    strict: bool,
    scratch: &mut UpdScratch,
) -> Result<(), TilingError> {
    let UpdScratch { rate, stack, .. } = scratch;
    let len = ext.entries.len();
    // rate(u) is determined up to one scalar per weakly connected
    // component. Edges touching fully-buffered nodes are skipped (their
    // update pattern is "once per elementary op").
    rate.clear();
    rate.resize(len, None);
    stack.clear();
    for start in 0..len {
        if rate[start].is_some() {
            continue;
        }
        rate[start] = Some(Ratio::from_int(1));
        stack.push(start as u32);
        while let Some(u) = stack.pop() {
            let u = u as usize;
            let Some(ru) = rate[u] else { continue }; // stacked positions have rates
            let (id, us) = ext.entries[u];
            // Forward edges u -> v (v consumes u): rate(v) = rate(u) / s(v).
            for &(v, req) in ext.consumers(u) {
                let v = v as usize;
                if dim.full(&us) || dim.full(&ext.entries[v].1) {
                    continue;
                }
                let Some(s) = dim.stride(req) else {
                    continue;
                };
                let rv = ru.div_int(u64::from(s.max(1)));
                match rate[v] {
                    None => {
                        rate[v] = Some(rv);
                        stack.push(v as u32);
                    }
                    Some(existing) if existing != rv && strict => {
                        return Err(TilingError::InconsistentRates {
                            node: ext.entries[v].0,
                        });
                    }
                    _ => {}
                }
            }
            // Backward edges p -> u (u consumes p): rate(p) = rate(u) · s(u-edge).
            for &p in graph.producers(id) {
                let Some(pp) = ext.position(p) else {
                    continue;
                };
                if dim.full(&ext.entries[pp].1) || dim.full(&us) {
                    continue;
                }
                let Some(s) = dim.stride(graph.edge_req(p, id)) else {
                    continue;
                };
                let rp = ru.mul_int(u64::from(s.max(1)));
                match rate[pp] {
                    None => {
                        rate[pp] = Some(rp);
                        stack.push(pp as u32);
                    }
                    Some(existing) if existing != rp && strict => {
                        return Err(TilingError::InconsistentRates { node: p });
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Writes the unique co-prime positive solution of one dimension into
/// `upd`, from the rates [`propagate_rates`] left in `scratch`.
fn scale_upd(ext: &Extended, dim: Dim, scratch: &mut UpdScratch, upd: &mut [Dims2]) {
    let UpdScratch {
        rate, upd: ratios, ..
    } = scratch;
    // upd(u) = rate(u) / Δ(u); scale to the least common integer solution.
    // Every position started a traversal if none reached it, so every
    // rate is set.
    ratios.clear();
    let mut scale = 1u64;
    for (&r, (_, s)) in rate.iter().zip(&ext.entries) {
        match r {
            Some(r) if !dim.full(s) => {
                let r = r.div_int(u64::from(dim.of(s.delta).max(1)));
                scale = lcm(scale, r.den);
                ratios.push(r);
            }
            _ => ratios.push(Ratio::from_int(1)),
        }
    }
    let mut all_gcd = 0u64;
    for (r, u) in ratios.iter().zip(upd.iter_mut()) {
        let v = r.num.saturating_mul(scale / r.den);
        all_gcd = gcd(all_gcd, v);
        dim.set(u, v as u32);
    }
    let g = all_gcd.max(1);
    for u in upd.iter_mut() {
        dim.set(u, (u64::from(dim.of(*u)) / g).max(1) as u32);
    }
}

/// The `BTreeMap`-keyed derivation the dense [`derive_scheme`] replaced,
/// kept verbatim as the oracle the property tests compare against.
#[cfg(test)]
pub(crate) mod reference {
    use super::{dim_reqs, Dim, DimReq};
    use crate::error::TilingError;
    use crate::mapper::Mapper;
    use crate::ratio::{gcd, lcm, Ratio};
    use crate::scheme::{ExecutionScheme, NodeScheme, NodeTiling};
    use cocco_graph::{Dims2, Graph, NodeId};
    use std::collections::BTreeMap;

    /// The `BTreeMap`-keyed derivation, verbatim.
    pub(crate) fn derive_scheme(
        graph: &Graph,
        members: &[NodeId],
        mapper: &Mapper,
    ) -> Result<ExecutionScheme, TilingError> {
        if members.is_empty() {
            return Err(TilingError::EmptySubgraph);
        }
        let n = graph.len();
        let mut is_member = vec![false; n];
        for &m in members {
            if m.index() >= n {
                return Err(TilingError::UnknownNode { node: m });
            }
            if is_member[m.index()] {
                return Err(TilingError::DuplicateMember { node: m });
            }
            is_member[m.index()] = true;
        }

        // Extended set: members plus boundary producers, ascending (= topological).
        let mut in_ext = vec![false; n];
        for &m in members {
            in_ext[m.index()] = true;
            for &p in graph.producers(m) {
                in_ext[p.index()] = true;
            }
        }
        let ext: Vec<NodeId> = (0..n)
            .map(NodeId::from_index)
            .filter(|id| in_ext[id.index()])
            .collect();

        // Member consumers of each extended node (deduplicated).
        let mut cons_in: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
        for &u in &ext {
            let mut cs: Vec<NodeId> = graph
                .consumers(u)
                .iter()
                .copied()
                .filter(|c| is_member[c.index()])
                .collect();
            cs.sort_unstable();
            cs.dedup();
            cons_in.insert(u, cs);
        }

        // Stages 1-2: backward pass in reverse topological order.
        let mut schemes: BTreeMap<NodeId, NodeScheme> = BTreeMap::new();
        let mut exact = true;
        for &u in ext.iter().rev() {
            let shape = graph.node(u).out_shape();
            let extent = Dims2::new(shape.h, shape.w);
            let consumers = &cons_in[&u];
            let (delta, tile) = if consumers.is_empty() {
                let t = mapper.output_tile(shape);
                (t, t)
            } else {
                // Accumulate the unclamped LCM requirement per dimension; a
                // `Full` consumption edge demands the whole extent.
                let mut d = (1u64, 1u64);
                let mut full_edge = (false, false);
                for &v in consumers {
                    let (rh, rw) = dim_reqs(graph.edge_req(u, v));
                    let vs = schemes[&v].tiling;
                    match rh {
                        DimReq::Full => full_edge.0 = true,
                        DimReq::Sliding { s, .. } => {
                            d.0 = lcm(d.0, u64::from(vs.delta.h).saturating_mul(u64::from(s)));
                        }
                    }
                    match rw {
                        DimReq::Full => full_edge.1 = true,
                        DimReq::Sliding { s, .. } => {
                            d.1 = lcm(d.1, u64::from(vs.delta.w).saturating_mul(u64::from(s)));
                        }
                    }
                }
                // Truncation (LCM overshooting the tensor) and full-consumption
                // edges break the exact `upd_num` relation (paper footnote on
                // the co-prime solution); natural Δ = extent does not.
                if d.0 > u64::from(extent.h) || d.1 > u64::from(extent.w) {
                    exact = false;
                }
                if full_edge.0 || full_edge.1 {
                    exact = false;
                }
                let dh = if full_edge.0 {
                    extent.h
                } else {
                    d.0.min(u64::from(extent.h)) as u32
                };
                let dw = if full_edge.1 {
                    extent.w
                } else {
                    d.1.min(u64::from(extent.w)) as u32
                };
                let d = Dims2::new(dh.max(1), dw.max(1));
                let mut t = d;
                for &v in consumers {
                    let (rh, rw) = dim_reqs(graph.edge_req(u, v));
                    match rh {
                        DimReq::Full => t.h = extent.h,
                        DimReq::Sliding { f, s } => {
                            // χ = f_v(Δ(u)/s) = F + (Δ(u)/s − 1)·s = F − s + Δ(u)
                            let chi = f.saturating_sub(s).saturating_add(d.h);
                            t.h = t.h.max(chi.min(extent.h));
                        }
                    }
                    match rw {
                        DimReq::Full => t.w = extent.w,
                        DimReq::Sliding { f, s } => {
                            let chi = f.saturating_sub(s).saturating_add(d.w);
                            t.w = t.w.max(chi.min(extent.w));
                        }
                    }
                }
                (d, t)
            };
            // Reaching the tensor extent means "fully buffered" in that dim.
            let full_h = delta.h >= extent.h;
            let full_w = delta.w >= extent.w;
            let delta = Dims2::new(delta.h.min(extent.h), delta.w.min(extent.w));
            let tile = Dims2::new(
                tile.h.min(extent.h).max(delta.h),
                tile.w.min(extent.w).max(delta.w),
            );
            schemes.insert(
                u,
                NodeScheme {
                    tiling: NodeTiling {
                        delta,
                        tile,
                        full_h,
                        full_w,
                        boundary_input: !is_member[u.index()],
                        interior_consumed: !consumers.is_empty(),
                    },
                    upd_num: Dims2::new(1, 1),
                },
            );
        }

        // Stage 3: co-prime upd_num per dimension via rational propagation.
        let strict = exact;
        for dim in [Dim::H, Dim::W] {
            match solve_upd(graph, &ext, &cons_in, &schemes, dim, strict) {
                Ok(upd) => {
                    for (&id, value) in &upd {
                        let s = schemes.get_mut(&id).expect("scheme exists");
                        match dim {
                            Dim::H => s.upd_num.h = *value,
                            Dim::W => s.upd_num.w = *value,
                        }
                    }
                }
                Err(e) => {
                    if strict {
                        return Err(e);
                    }
                    exact = false;
                }
            }
        }

        Ok(ExecutionScheme::new(schemes.into_iter().collect(), exact))
    }

    /// Solves `upd(u)·Δ(u) = upd(v)·Δ(v)·s(v)` for every internal edge `u → v`
    /// of one dimension, returning the unique co-prime positive solution.
    fn solve_upd(
        graph: &Graph,
        ext: &[NodeId],
        cons_in: &BTreeMap<NodeId, Vec<NodeId>>,
        schemes: &BTreeMap<NodeId, NodeScheme>,
        dim: Dim,
        strict: bool,
    ) -> Result<BTreeMap<NodeId, u32>, TilingError> {
        // rate(u) = upd(u)·Δ(u), determined up to one scalar per weakly
        // connected component. Edges touching fully-buffered nodes are skipped
        // (their update pattern is "once per elementary op").
        let mut rate: BTreeMap<NodeId, Ratio> = BTreeMap::new();
        for &start in ext {
            if rate.contains_key(&start) {
                continue;
            }
            rate.insert(start, Ratio::from_int(1));
            let mut stack = vec![start];
            while let Some(u) = stack.pop() {
                let ru = rate[&u];
                // Forward edges u -> v (v consumes u): rate(v) = rate(u) / s(v).
                for &v in &cons_in[&u] {
                    if dim.full(&schemes[&u].tiling) || dim.full(&schemes[&v].tiling) {
                        continue;
                    }
                    let Some(s) = dim.stride(graph.edge_req(u, v)) else {
                        continue;
                    };
                    let rv = ru.div_int(u64::from(s.max(1)));
                    match rate.get(&v) {
                        None => {
                            rate.insert(v, rv);
                            stack.push(v);
                        }
                        Some(existing) if *existing != rv && strict => {
                            return Err(TilingError::InconsistentRates { node: v });
                        }
                        _ => {}
                    }
                }
                // Backward edges p -> u (u consumes p): rate(p) = rate(u) · s(u-edge).
                for &p in graph.producers(u) {
                    let Some(ps) = schemes.get(&p) else { continue };
                    if dim.full(&ps.tiling) || dim.full(&schemes[&u].tiling) {
                        continue;
                    }
                    let Some(s) = dim.stride(graph.edge_req(p, u)) else {
                        continue;
                    };
                    let rp = ru.mul_int(u64::from(s.max(1)));
                    match rate.get(&p) {
                        None => {
                            rate.insert(p, rp);
                            stack.push(p);
                        }
                        Some(existing) if *existing != rp && strict => {
                            return Err(TilingError::InconsistentRates { node: p });
                        }
                        _ => {}
                    }
                }
            }
        }

        // upd(u) = rate(u) / Δ(u); scale to the least common integer solution.
        let mut upd_ratio: Vec<(NodeId, Ratio)> = Vec::with_capacity(ext.len());
        let mut scale = 1u64;
        for &u in ext {
            let s = &schemes[&u].tiling;
            if dim.full(s) {
                upd_ratio.push((u, Ratio::from_int(1)));
                continue;
            }
            let r = rate[&u].div_int(u64::from(dim.of(s.delta).max(1)));
            scale = lcm(scale, r.den);
            upd_ratio.push((u, r));
        }
        let mut upd: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut all_gcd = 0u64;
        for (u, r) in &upd_ratio {
            let v = r.num.saturating_mul(scale / r.den);
            all_gcd = gcd(all_gcd, v);
            upd.insert(*u, v as u32);
        }
        let g = all_gcd.max(1);
        for v in upd.values_mut() {
            *v = ((u64::from(*v)) / g).max(1) as u32;
        }
        Ok(upd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::MapperPolicy;
    use cocco_graph::{GraphBuilder, Kernel, TensorShape};

    /// The Figure 5 example of the paper as a 1-D problem (height carries
    /// the example; width is a single column).
    ///
    /// Paper wiring: inputs (-2) and (-1); node(0) consumes (-2) with
    /// F=3,s=2; node(1) consumes *both* (-2) and (-1) with F=3,s=1;
    /// node(2) consumes (-1) with F=1,s=1. Convolutions here take a single
    /// producer, so node(1) is expressed as two parallel F=3,s=1 convs
    /// (`n1a` from (-2), `n1b` from (-1)) joined by a point-wise eltwise —
    /// consumption-wise identical to the paper's two-input node(1).
    fn figure5_graph() -> (cocco_graph::Graph, Vec<NodeId>) {
        let conv1d = |f: u32, s: u32, p: u32| cocco_graph::LayerOp::Conv {
            kernel: Kernel::new(Dims2::new(f, 1), Dims2::new(s, 1), Dims2::new(p, 0)),
            c_out: 1,
        };
        let mut b = GraphBuilder::new("fig5");
        let in2 = b.input(TensorShape::new(64, 1, 1)); // node(-2)
        let in1 = b.input(TensorShape::new(64, 1, 1)); // node(-1)
        let _n0 = b.add("n0", conv1d(3, 2, 1), &[in2]).unwrap();
        let n1a = b.add("n1a", conv1d(3, 1, 1), &[in2]).unwrap();
        let n1b = b.add("n1b", conv1d(3, 1, 1), &[in1]).unwrap();
        let _n1 = b.eltwise("n1", &[n1a, n1b]).unwrap();
        let _n2 = b.add("n2", conv1d(1, 1, 0), &[in1]).unwrap();
        let g = b.finish().unwrap();
        let members = g.node_ids().collect();
        (g, members)
    }

    #[test]
    fn figure5_quantities() {
        let (g, members) = figure5_graph();
        let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 1 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        assert!(scheme.exact_upd());
        let by_name = |name: &str| {
            let id = g.iter().find(|(_, n)| n.name() == name).unwrap().0;
            *scheme.get(id).unwrap()
        };
        // Output nodes: Δ = x = 2 (stage 1).
        for out in ["n0", "n1", "n2"] {
            let s = by_name(out);
            assert_eq!(s.tiling.delta.h, 2, "{out}");
            assert_eq!(s.tiling.tile.h, 2, "{out}");
        }
        // The halves of node(1) inherit its published Δ(1) = x(1) = 2.
        for half in ["n1a", "n1b"] {
            let s = by_name(half);
            assert_eq!(s.tiling.delta.h, 2, "{half}");
            assert_eq!(s.tiling.tile.h, 2, "{half}");
        }
        // Node(-2): Δ = lcm{Δ(0)s(0), Δ(1)s(1)} = lcm{4, 2} = 4;
        //           x = max{f0(2)=5, f1(4)=6} = 6.
        let in2 = by_name("input");
        assert_eq!(in2.tiling.delta.h, 4);
        assert_eq!(in2.tiling.tile.h, 6);
        // Node(-1): Δ = lcm{Δ(1)s(1), Δ(2)s(2)} = 2;
        //           x = max{f1(2)=4, f2(2)=2} = 4.
        let in1 = by_name("input1");
        assert_eq!(in1.tiling.delta.h, 2);
        assert_eq!(in1.tiling.tile.h, 4);
        // upd_num: the unique co-prime solution {1, 2, 1, 2, 2} of the
        // paper — node(-2) and node(0) update once per elementary
        // operation, all other nodes twice.
        assert_eq!(in2.upd_num.h, 1);
        assert_eq!(by_name("n0").upd_num.h, 1);
        assert_eq!(in1.upd_num.h, 2);
        assert_eq!(by_name("n1a").upd_num.h, 2);
        assert_eq!(by_name("n1b").upd_num.h, 2);
        assert_eq!(by_name("n1").upd_num.h, 2);
        assert_eq!(by_name("n2").upd_num.h, 2);
    }

    #[test]
    fn chain_tiles_grow_backward() {
        let g = cocco_graph::models::chain(4);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 1 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        // With 3x3/1 convs each producer needs F−s+Δ = 2+Δ... but Δ stays 1,
        // so x grows by exactly 2 per backward step until clamped.
        let tiles: Vec<u32> = g
            .node_ids()
            .map(|id| scheme.get(id).unwrap().tiling.tile.h)
            .collect();
        assert_eq!(tiles, vec![3, 3, 3, 3, 1]);
    }

    #[test]
    fn boundary_producers_are_covered() {
        let g = cocco_graph::models::chain(4);
        // Members: only the last two convs; producer c1 is a boundary input.
        let ids: Vec<_> = g.node_ids().collect();
        let members = vec![ids[3], ids[4]];
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        assert_eq!(scheme.len(), 3);
        let boundary = scheme.get(ids[2]).unwrap();
        assert!(boundary.tiling.boundary_input);
        assert!(boundary.tiling.interior_consumed);
        assert!(!scheme.get(ids[4]).unwrap().tiling.interior_consumed);
    }

    #[test]
    fn global_pool_forces_full_buffering() {
        let mut b = GraphBuilder::new("gp");
        let i = b.input(TensorShape::new(16, 16, 4));
        let c = b.conv("c", i, 4, Kernel::square_same(3, 1)).unwrap();
        let gp = b.global_pool("gp", c).unwrap();
        let _ = gp;
        let g = b.finish().unwrap();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let c_id = g.iter().find(|(_, n)| n.name() == "c").unwrap().0;
        let s = scheme.get(c_id).unwrap();
        assert!(s.tiling.fully_buffered());
        assert_eq!(s.tiling.tile, Dims2::new(16, 16));
        assert!(!scheme.exact_upd());
    }

    #[test]
    fn stride_two_doubles_producer_delta() {
        let mut b = GraphBuilder::new("s2");
        let i = b.input(TensorShape::new(32, 32, 4));
        let c = b.conv("c", i, 4, Kernel::square_same(3, 2)).unwrap();
        let _ = c;
        let g = b.finish().unwrap();
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::Tile { rows: 2, cols: 4 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        let input = scheme.get(g.input_ids()[0]).unwrap();
        assert_eq!(input.tiling.delta.h, 4); // 2 rows out × stride 2
        assert_eq!(input.tiling.tile.h, 5); // F − s + Δ = 3 − 2 + 4
        assert_eq!(input.tiling.tile.w, 9); // 3 − 2 + 8
    }

    #[test]
    fn empty_members_rejected() {
        let g = cocco_graph::models::chain(2);
        assert_eq!(
            derive_scheme(&g, &[], &Mapper::default()),
            Err(TilingError::EmptySubgraph)
        );
    }

    #[test]
    fn duplicate_members_rejected() {
        let g = cocco_graph::models::chain(2);
        let id = g.node_ids().next().unwrap();
        assert_eq!(
            derive_scheme(&g, &[id, id], &Mapper::default()),
            Err(TilingError::DuplicateMember { node: id })
        );
    }

    #[test]
    fn unknown_member_rejected() {
        let g = cocco_graph::models::chain(2);
        let bogus = NodeId::from_index(99);
        assert_eq!(
            derive_scheme(&g, &[bogus], &Mapper::default()),
            Err(TilingError::UnknownNode { node: bogus })
        );
    }

    #[test]
    fn tile_minus_delta_equals_max_kernel_overlap() {
        // The invariant behind the SIDE region sizing: x − Δ = max(F − s)
        // over consumers (pre-clamping).
        let g = cocco_graph::models::googlenet();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        for (id, s) in scheme.iter() {
            if s.tiling.full_h || !s.tiling.interior_consumed {
                continue;
            }
            let max_overlap = g
                .consumers(id)
                .iter()
                .filter_map(|&v| match g.edge_req(id, v) {
                    EdgeReq::Sliding(k) => Some(k.size.h.saturating_sub(k.stride.h)),
                    EdgeReq::Full => None,
                })
                .max()
                .unwrap_or(0);
            assert!(
                s.tiling.overlap_rows() <= max_overlap,
                "node {id}: overlap {} > max F−s {max_overlap}",
                s.tiling.overlap_rows()
            );
        }
    }

    /// SplitMix64: a seeded, dependency-free stream for the property tests.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Member lists of every family the oracle test covers on `g`:
    /// connected and depth groups at several `L`, seeded random subsets
    /// (sorted and shuffled), duplicates, out-of-range ids and the empty
    /// list.
    fn member_families(g: &Graph, seed: u64) -> Vec<Vec<NodeId>> {
        use cocco_partition::Partition;
        let n = g.len();
        let mut sets: Vec<Vec<NodeId>> = vec![Vec::new(), g.node_ids().collect()];
        for l in [1, 2, 3, 5, 8, 13, 21, 1000] {
            sets.extend(Partition::connected_groups(g, l).subgraphs());
            sets.extend(Partition::depth_groups(g, l).subgraphs());
        }
        let mut state = seed;
        for round in 0..60 {
            let size = 1 + (splitmix(&mut state) % (n as u64).min(40)) as usize;
            let mut set: Vec<NodeId> = (0..size)
                .map(|_| NodeId::from_index((splitmix(&mut state) % n as u64) as usize))
                .collect();
            set.sort_unstable();
            set.dedup();
            sets.push(set.clone());
            // Shuffled copy (Fisher-Yates).
            for i in (1..set.len()).rev() {
                set.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
            }
            sets.push(set.clone());
            // A duplicate, and an out-of-range id, at seeded positions.
            let at = (splitmix(&mut state) % (set.len() as u64 + 1)) as usize;
            let mut dup = set.clone();
            dup.insert(at, set[(round * 7) % set.len()]);
            sets.push(dup.clone());
            let mut unknown = set.clone();
            unknown.insert(at, NodeId::from_index(n + round));
            sets.push(unknown);
            // Both faults: the first one in member order must win.
            dup.insert(at.min(dup.len()), NodeId::from_index(n));
            sets.push(dup);
        }
        sets
    }

    #[test]
    fn dense_derivation_matches_the_reference() {
        let mappers = [
            Mapper::default(),
            Mapper::new(MapperPolicy::Tile { rows: 2, cols: 4 }),
        ];
        let mut checked = 0usize;
        let mut errors = 0usize;
        for (k, (name, build)) in cocco_graph::models::registry().iter().enumerate() {
            let g = build();
            for members in member_families(&g, 0x5eed ^ k as u64) {
                for mapper in &mappers {
                    let got = derive_scheme(&g, &members, mapper);
                    let want = reference::derive_scheme(&g, &members, mapper);
                    assert_eq!(got, want, "{name}: members {members:?}");
                    checked += 1;
                    errors += usize::from(want.is_err());
                }
            }
        }
        assert!(checked > 10_000, "only {checked} member sets checked");
        assert!(errors > 0 && errors < checked);
    }

    #[test]
    fn tiling_matches_the_scheme() {
        // The stage 1-2 path returns the scheme's tilings and errors on
        // every family, the random disconnected subsets included.
        let mappers = [
            Mapper::default(),
            Mapper::new(MapperPolicy::Tile { rows: 2, cols: 4 }),
        ];
        let (mut checked, mut propagated, mut inconsistent) = (0usize, 0usize, 0usize);
        for (k, (name, build)) in cocco_graph::models::registry().iter().enumerate() {
            let g = build();
            let proof = RateProof::of(&g);
            for members in member_families(&g, 0x5eed ^ k as u64) {
                for mapper in &mappers {
                    let got = derive_tiling(&g, &members, mapper, &proof);
                    let want = derive_scheme(&g, &members, mapper);
                    match (&got, &want) {
                        (Ok(got), Ok(want)) => {
                            let want: Vec<_> = want.iter().map(|(id, s)| (id, s.tiling)).collect();
                            let got: Vec<_> = got.iter().map(|(id, t)| (id, *t)).collect();
                            assert_eq!(got, want, "{name}: members {members:?}");
                        }
                        _ => assert_eq!(
                            got.as_ref().err(),
                            want.as_ref().err(),
                            "{name}: members {members:?}"
                        ),
                    }
                    checked += 1;
                    propagated += usize::from(got.is_ok_and(|t| t.rates_propagated()));
                    inconsistent +=
                        usize::from(matches!(want, Err(TilingError::InconsistentRates { .. })));
                }
            }
        }
        assert!(checked > 10_000, "only {checked} member sets checked");
        // Both outcomes of the propagation the proof could not skip occur.
        assert!(propagated > 0, "no consistent set needed the propagation");
        assert!(
            inconsistent > 0,
            "no family reaches an inconsistent rate system"
        );
    }

    #[test]
    fn inconsistent_rates_match_the_reference() {
        // Two paths from one input into an eltwise whose stride products
        // differ (1 vs 2) while their output extents agree: no consistent
        // update rate exists, and both derivations blame the same node.
        let mut b = GraphBuilder::new("skew");
        let i = b.input(TensorShape::new(32, 32, 4));
        let wide = cocco_graph::LayerOp::Conv {
            kernel: Kernel::new(Dims2::square(17), Dims2::square(1), Dims2::square(0)),
            c_out: 4,
        };
        let a = b.add("a", wide, &[i]).unwrap();
        let s2 = b.conv("s2", i, 4, Kernel::square_same(3, 2)).unwrap();
        let _ = b.eltwise("e", &[a, s2]).unwrap();
        let g = b.finish().unwrap();
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::Tile { rows: 1, cols: 1 });
        let got = derive_scheme(&g, &members, &mapper);
        assert!(
            matches!(got, Err(TilingError::InconsistentRates { .. })),
            "{got:?}"
        );
        assert_eq!(got, reference::derive_scheme(&g, &members, &mapper));
    }

    #[test]
    fn elementary_ops_cover_tensor() {
        let g = cocco_graph::models::chain(3);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 4 });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        let ops = scheme.elementary_ops(&g);
        assert_eq!(ops.h, 8); // 32 rows / 4 per op
        assert_eq!(ops.w, 1);
    }
}
