//! Elementary-operation program generation — the "accelerator task"
//! generation step of the framework (paper Fig. 10: *Task Scheduling →
//! generate accel. task & eval*).
//!
//! A subgraph executes as a series of elementary operations; within one
//! operation every node performs up to `upd_num` memory updates in
//! topological order. [`generate_program`] emits the explicit step list
//! (what to load from DRAM, what to compute, what still stalls during
//! pipeline ramp-up), and [`Program::validate`] independently checks the
//! *hazard-freedom invariant*: every compute step's input windows are
//! resident in its producers' MAIN/SIDE regions at the moment it executes —
//! which is precisely what the consumption-centric derivation promises in
//! steady state, and what the ramp-up lag handling preserves at the
//! borders.

use crate::scheme::ExecutionScheme;
use cocco_graph::{EdgeReq, Graph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Where a step's data comes from.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StepKind {
    /// A boundary-input tile loaded from DRAM into the node's regions.
    DramLoad,
    /// Rows computed on the PE array from resident producer data.
    Compute,
}

/// One memory update of one node within an elementary operation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    /// The updated node.
    pub node: NodeId,
    /// 1-based global update counter of this node.
    pub update: u32,
    /// First fresh output row produced by this update.
    pub from: u32,
    /// Last fresh output row (inclusive).
    pub to: u32,
    /// Load or compute.
    pub kind: StepKind,
    /// Whether the fresh rows are also streamed back to DRAM (subgraph
    /// outputs and tensors needed by later subgraphs).
    pub writeback: bool,
}

/// The step list of one elementary operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ElementaryOp {
    /// 1-based operation index.
    pub index: u32,
    /// Steps in issue order (topological across nodes).
    pub steps: Vec<Step>,
}

/// A complete subgraph program: the control flow the paper's NPU runs
/// between two buffer-region-manager reconfigurations.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Program {
    ops: Vec<ElementaryOp>,
}

impl Program {
    /// The elementary operations in execution order.
    pub fn ops(&self) -> &[ElementaryOp] {
        &self.ops
    }

    /// Total number of steps across all operations.
    pub fn step_count(&self) -> usize {
        self.ops.iter().map(|op| op.steps.len()).sum()
    }

    /// Rows loaded from DRAM by this program (height dimension).
    pub fn dram_load_rows(&self) -> u64 {
        self.ops
            .iter()
            .flat_map(|op| &op.steps)
            .filter(|s| s.kind == StepKind::DramLoad)
            .map(|s| u64::from(s.to - s.from + 1))
            .sum()
    }

    /// `true` when every covered node has produced its full height extent.
    pub fn is_complete(&self, graph: &Graph, scheme: &ExecutionScheme) -> bool {
        let mut avail: BTreeMap<NodeId, u32> = BTreeMap::new();
        for step in self.ops.iter().flat_map(|op| &op.steps) {
            avail.insert(step.node, step.to + 1);
        }
        scheme
            .iter()
            .all(|(id, _)| avail.get(&id) == Some(&graph.node(id).out_shape().h))
    }

    /// Validates the *hard* hazard-freedom invariant: no compute step ever
    /// reads producer rows that have not been produced yet (and every
    /// producer is covered by the scheme).
    ///
    /// Returns the first violating step, or `None` when the program is
    /// hazard-free. Pair with [`retention_slack`](Program::retention_slack)
    /// to also bound the eviction side of the invariant.
    pub fn validate(&self, graph: &Graph, scheme: &ExecutionScheme) -> Option<Step> {
        let mut avail: BTreeMap<NodeId, u32> = BTreeMap::new();
        for op in &self.ops {
            for step in &op.steps {
                if step.kind == StepKind::Compute {
                    for (idx, &p) in graph.node(step.node).inputs().iter().enumerate() {
                        if scheme.get(p).is_none() {
                            return Some(*step);
                        }
                        let got = *avail.get(&p).unwrap_or(&0);
                        let (_, hi) = needed_rows(graph, step, idx, p);
                        if got == 0 || hi > got - 1 {
                            return Some(*step);
                        }
                    }
                }
                avail.insert(step.node, step.to + 1);
            }
        }
        None
    }

    /// The eviction side of the invariant: the maximum number of rows, over
    /// every node and step, that a consumer read *below* the producer's
    /// steady-state retention window of `x` rows.
    ///
    /// In steady state this is 0 by construction of the derivation; during
    /// pipeline ramp-up at tensor borders, padding lets early updates
    /// overshoot (and deep joins lag) by a bounded phase offset, which the
    /// producer's region must absorb by retaining that many extra rows.
    /// The extra footprint is at most a few rows per node — callers can
    /// treat the returned value (in rows) as the required per-node slack.
    pub fn retention_slack(&self, graph: &Graph, scheme: &ExecutionScheme) -> u32 {
        let mut avail: BTreeMap<NodeId, u32> = BTreeMap::new();
        let mut worst = 0u32;
        for op in &self.ops {
            for step in &op.steps {
                if step.kind == StepKind::Compute {
                    for (idx, &p) in graph.node(step.node).inputs().iter().enumerate() {
                        let Some(ps) = scheme.get(p) else { continue };
                        let got = *avail.get(&p).unwrap_or(&0);
                        if got == 0 {
                            continue;
                        }
                        let (lo, _) = needed_rows(graph, step, idx, p);
                        let resident_lo = got.saturating_sub(ps.tiling.tile.h);
                        if lo < resident_lo {
                            worst = worst.max(resident_lo - lo);
                        }
                    }
                }
                avail.insert(step.node, step.to + 1);
            }
        }
        worst
    }
}

/// Producer rows `[lo, hi]` that input `idx` of `step` reads.
fn needed_rows(graph: &Graph, step: &Step, idx: usize, producer: NodeId) -> (u32, u32) {
    let ph = graph.node(producer).out_shape().h;
    match graph.node(step.node).edge_req(idx) {
        EdgeReq::Full => (0, ph - 1),
        EdgeReq::Sliding(k) => {
            // Output rows [from..to] read input rows
            // [from·s − pad .. to·s + F − 1 − pad], clamped at the borders.
            let lo = (step.from * k.stride.h).saturating_sub(k.pad.h);
            let hi = (step.to * k.stride.h + k.size.h - 1)
                .saturating_sub(k.pad.h)
                .min(ph - 1);
            (lo, hi)
        }
    }
}

/// Generates the elementary-operation program for a derived scheme as a
/// true dataflow schedule: each update produces as many fresh rows as its
/// producers' available data allows (up to the steady-state `Δ` advance,
/// with an initial `x`-row prefill), so pipeline ramp-up at tensor borders
/// stalls instead of reading unproduced rows.
///
/// `writeback` marks nodes whose fresh rows stream back to DRAM. `max_ops`
/// bounds the emitted operations; the steady-state count is
/// [`ExecutionScheme::elementary_ops`]`.h` plus a few drain operations for
/// deep subgraphs.
///
/// # Examples
///
/// ```
/// use cocco_tiling::{derive_scheme, schedule::generate_program, Mapper, MapperPolicy};
///
/// let g = cocco_graph::models::chain(3);
/// let members: Vec<_> = g.node_ids().collect();
/// let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows: 4 });
/// let scheme = derive_scheme(&g, &members, &mapper).unwrap();
/// let program = generate_program(&g, &scheme, &|_| false, 32);
/// assert!(program.validate(&g, &scheme).is_none(), "hazard-free");
/// assert!(program.is_complete(&g, &scheme));
/// ```
pub fn generate_program(
    graph: &Graph,
    scheme: &ExecutionScheme,
    writeback: &dyn Fn(NodeId) -> bool,
    max_ops: u32,
) -> Program {
    let covered: Vec<NodeId> = scheme.iter().map(|(id, _)| id).collect();
    let mut avail: BTreeMap<NodeId, u32> = covered.iter().map(|&id| (id, 0)).collect();
    let mut updates: BTreeMap<NodeId, u32> = covered.iter().map(|&id| (id, 0)).collect();
    let mut program = Program { ops: Vec::new() };
    for index in 1..=max_ops {
        let mut steps = Vec::new();
        for &id in &covered {
            // cocco-audit: allow(R1) covered is scheme's own node list collected above
            let s = scheme.get(id).expect("covered");
            let h = graph.node(id).out_shape().h;
            let node = graph.node(id);
            let is_load = s.tiling.boundary_input || node.op().is_input();
            let kind = if is_load {
                StepKind::DramLoad
            } else {
                StepKind::Compute
            };
            for _ in 0..s.upd_num.h.max(1) {
                let got = avail[&id];
                if got >= h {
                    break;
                }
                // DRAM loads advance at the derived rate: an x-row prefill
                // then Δ fresh rows per update. A computed node's *first*
                // update is eager — it absorbs the top-border rows that
                // padding enables, which is what keeps its phase aligned
                // with the producer's eviction — and every later update
                // advances by at most Δ so the drain at the bottom border
                // also stays inside the producers' retention windows.
                let target = if !is_load && got == 0 {
                    h
                } else if got == 0 {
                    s.tiling.tile.h.min(h)
                } else {
                    (got + s.tiling.delta.h).min(h)
                };
                // Dataflow bound: rows computable from producer data.
                let producible = if is_load {
                    target
                } else {
                    let mut bound = target;
                    for (idx, &p) in node.inputs().iter().enumerate() {
                        let ph = graph.node(p).out_shape().h;
                        let pa = *avail.get(&p).unwrap_or(&ph);
                        let limit = match node.edge_req(idx) {
                            EdgeReq::Full => {
                                if pa >= ph {
                                    target
                                } else {
                                    0
                                }
                            }
                            EdgeReq::Sliding(k) => {
                                if pa >= ph {
                                    target
                                } else {
                                    // Highest output row whose window fits
                                    // in rows [0, pa): r·s + F − 1 − pad ≤ pa − 1.
                                    let num =
                                        i64::from(pa) + i64::from(k.pad.h) - i64::from(k.size.h);
                                    if num < 0 {
                                        0
                                    } else {
                                        (num / i64::from(k.stride.h.max(1))) as u32 + 1
                                    }
                                }
                            }
                        };
                        bound = bound.min(limit);
                    }
                    bound
                };
                if producible <= got {
                    break; // stall: producers have not advanced enough
                }
                // cocco-audit: allow(R1) updates was initialized with every covered id
                let t = updates.get_mut(&id).expect("covered");
                *t += 1;
                steps.push(Step {
                    node: id,
                    update: *t,
                    from: got,
                    to: producible - 1,
                    kind,
                    writeback: writeback(id),
                });
                avail.insert(id, producible);
            }
        }
        if steps.is_empty() {
            break; // everything drained
        }
        program.ops.push(ElementaryOp { index, steps });
    }
    program
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{derive_scheme, Mapper, MapperPolicy};

    fn chain_scheme(rows: u32) -> (cocco_graph::Graph, ExecutionScheme) {
        let g = cocco_graph::models::chain(3);
        let members: Vec<_> = g.node_ids().collect();
        let mapper = Mapper::new(MapperPolicy::FullWidthRows { rows });
        let scheme = derive_scheme(&g, &members, &mapper).unwrap();
        (g, scheme)
    }

    #[test]
    fn chain_program_is_hazard_free_and_complete() {
        for rows in [1u32, 2, 4, 8] {
            let (g, scheme) = chain_scheme(rows);
            let program = generate_program(&g, &scheme, &|_| false, 128);
            assert!(
                program.validate(&g, &scheme).is_none(),
                "rows={rows}: hazard found"
            );
            assert!(program.is_complete(&g, &scheme), "rows={rows}: incomplete");
            // Ramp transients need at most a couple of extra retained rows.
            assert!(
                program.retention_slack(&g, &scheme) <= 2,
                "rows={rows}: slack too large"
            );
        }
    }

    #[test]
    fn branchy_program_is_hazard_free() {
        let g = cocco_graph::models::branchy();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let program = generate_program(&g, &scheme, &|_| false, 256);
        assert!(program.validate(&g, &scheme).is_none());
        assert!(program.is_complete(&g, &scheme));
        assert!(program.retention_slack(&g, &scheme) <= 4);
    }

    #[test]
    fn googlenet_subgraphs_are_hazard_free() {
        // The strongest executable-scheme check: fused inception slices
        // admit hazard-free dataflow schedules.
        let g = cocco_graph::models::googlenet();
        let ids: Vec<_> = g.node_ids().collect();
        for (start, window) in [(2usize, 6usize), (5, 8), (10, 10)] {
            if start + window > ids.len() {
                continue;
            }
            let members = &ids[start..start + window];
            if !g.is_connected_subset(members) {
                continue;
            }
            let Ok(scheme) = derive_scheme(&g, members, &Mapper::default()) else {
                continue;
            };
            let program = generate_program(&g, &scheme, &|_| true, 4096);
            assert!(
                program.validate(&g, &scheme).is_none(),
                "start={start} window={window}: hazard"
            );
            assert!(program.is_complete(&g, &scheme));
            // Border phase offsets stay within a kernel overhang of rows.
            let slack = program.retention_slack(&g, &scheme);
            assert!(slack <= 8, "start={start} window={window}: slack {slack}");
        }
    }

    #[test]
    fn inputs_load_from_dram_and_outputs_write_back() {
        let (g, scheme) = chain_scheme(4);
        let out = g.output_ids()[0];
        let program = generate_program(&g, &scheme, &|id| id == out, 64);
        let has_load = program
            .ops()
            .iter()
            .flat_map(|op| &op.steps)
            .any(|s| s.kind == StepKind::DramLoad);
        let has_writeback = program
            .ops()
            .iter()
            .flat_map(|op| &op.steps)
            .any(|s| s.writeback && s.node == out);
        assert!(has_load);
        assert!(has_writeback);
        // Every input row is loaded exactly once: 32 rows.
        assert_eq!(program.dram_load_rows(), 32);
    }

    #[test]
    fn fresh_rows_partition_the_tensor() {
        // Union of fresh rows per node covers [0, H) without overlap.
        let (g, scheme) = chain_scheme(3);
        let program = generate_program(&g, &scheme, &|_| false, 128);
        for (id, _) in scheme.iter() {
            let h = g.node(id).out_shape().h;
            let mut covered = vec![false; h as usize];
            for step in program.ops().iter().flat_map(|op| &op.steps) {
                if step.node != id {
                    continue;
                }
                for r in step.from..=step.to {
                    assert!(!covered[r as usize], "{id}: row {r} produced twice");
                    covered[r as usize] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "{id}: rows missing");
        }
    }

    #[test]
    fn stalls_resolve_within_a_few_ops() {
        // Ramp-up lag is bounded by the pipeline depth: the program needs
        // only a few extra operations beyond the steady-state count.
        let (g, scheme) = chain_scheme(2);
        let steady = scheme.elementary_ops(&g).h;
        let program = generate_program(&g, &scheme, &|_| false, 256);
        assert!(program.is_complete(&g, &scheme));
        assert!(
            (program.ops().len() as u32) <= steady + g.len() as u32,
            "{} ops for steady {steady}",
            program.ops().len()
        );
    }
}
