//! Per-subgraph content fingerprints stored alongside a partition — the
//! cache identity the incremental evaluation path keys on.
//!
//! A [`PartitionFingerprints`] holds the [`NodeSetFp`] of every subgraph of
//! one partition in two views: **by position** (aligned with
//! [`Partition::subgraphs`], the order evaluation consumes) and **by
//! anchor** (the subgraph's smallest member node, with its fingerprint).
//! The anchor view is the incremental carrier: node ids are stable across
//! repair's id renumbering, and an unchanged member set keeps its smallest
//! member, so after a mutation the next generation copies every clean
//! subgraph's fingerprint through its anchor in O(log #subgraphs) and
//! re-derives only the subgraphs a [`PartitionDelta`] marked dirty — no
//! member vector is re-hashed, no per-lookup key is allocated. Both views
//! are `O(#subgraphs)` in size, so fingerprint sets travel cheaply inside
//! memos and cache entries.
//!
//! Correctness rests on the delta invariant (see [`PartitionDelta`]): a
//! subgraph containing no dirty node has exactly the member set it had in
//! the previous partition, hence the same anchor and the same fingerprint.
//! Debug builds verify every copied fingerprint against a from-scratch
//! recomputation.

use crate::delta::PartitionDelta;
use crate::layout::SubgraphsView;
use crate::partition::Partition;
use cocco_graph::{NodeId, NodeSetFp};

/// The subgraph fingerprints of one partition (see module docs).
///
/// # Examples
///
/// ```
/// use cocco_partition::{Partition, PartitionDelta, PartitionFingerprints};
/// use cocco_graph::NodeId;
///
/// let before = Partition::from_assignment(vec![0, 0, 1, 1]);
/// let fps = PartitionFingerprints::compute(&before);
///
/// // Move node 3 into subgraph 0 and record the dirt.
/// let mut after = before.clone();
/// let mut delta = PartitionDelta::clean(4);
/// delta.touch_subgraph(&after, 0);
/// delta.touch_subgraph(&after, 1);
/// after.assign(NodeId::from_index(3), 0);
///
/// let refreshed = fps.refresh(&after, &delta);
/// assert_eq!(refreshed, PartitionFingerprints::compute(&after));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionFingerprints {
    /// Fingerprint of subgraph `i` in [`Partition::subgraphs`] order.
    by_position: Vec<NodeSetFp>,
    /// `(anchor, fingerprint)` per subgraph — the anchor is the subgraph's
    /// smallest member — sorted by anchor for binary-search lookup.
    anchors: Vec<(NodeId, NodeSetFp)>,
}

impl PartitionFingerprints {
    /// Fingerprints every subgraph of `partition` from scratch — one
    /// arithmetic pass over the assignment, no member vectors touched.
    pub fn compute(partition: &Partition) -> Self {
        let assignment = partition.assignment();
        let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
        let mut acc = vec![NodeSetFp::EMPTY; max + 1];
        let mut anchor_of = vec![None; max + 1];
        for (i, &a) in assignment.iter().enumerate() {
            acc[a as usize].insert(NodeId::from_index(i));
            // Nodes iterate in ascending order: the first hit is the anchor.
            anchor_of[a as usize].get_or_insert(NodeId::from_index(i));
        }
        let by_position: Vec<NodeSetFp> = acc
            .iter()
            .zip(&anchor_of)
            .filter(|(_, anchor)| anchor.is_some())
            .map(|(&fp, _)| fp)
            .collect();
        let anchors = Self::index(
            anchor_of
                .into_iter()
                .zip(acc)
                .filter_map(|(anchor, fp)| anchor.map(|a| (a, fp))),
        );
        Self {
            by_position,
            anchors,
        }
    }

    /// Fingerprints an explicit ordered subgraph list (the evaluation-side
    /// view of a partition — nested vectors or a flat
    /// [`PartitionLayout`](crate::PartitionLayout); members of each
    /// subgraph must be ascending, as [`Partition::subgraphs`] produces
    /// them).
    pub fn from_subgraphs<S: SubgraphsView + ?Sized>(subgraphs: &S) -> Self {
        let n = subgraphs.num_subgraphs();
        let by_position: Vec<NodeSetFp> = (0..n)
            .map(|i| NodeSetFp::of_members(subgraphs.members_of(i)))
            .collect();
        let anchors = Self::index(
            (0..n)
                .zip(&by_position)
                .filter_map(|(i, &fp)| subgraphs.members_of(i).first().map(|&a| (a, fp))),
        );
        Self {
            by_position,
            anchors,
        }
    }

    /// Builds the sorted anchor index.
    fn index(pairs: impl Iterator<Item = (NodeId, NodeSetFp)>) -> Vec<(NodeId, NodeSetFp)> {
        let mut anchors: Vec<(NodeId, NodeSetFp)> = pairs.collect();
        anchors.sort_unstable_by_key(|&(anchor, _)| anchor);
        anchors
    }

    /// Incrementally re-fingerprints `subgraphs` given one per-position
    /// dirty flag: clean positions copy this fingerprint set's entry
    /// through their (stable) anchor, dirty positions re-derive from their
    /// members. Debug builds assert every copied fingerprint equals the
    /// from-scratch one.
    pub fn refresh_positions<S: SubgraphsView + ?Sized>(
        &self,
        subgraphs: &S,
        dirty: &[bool],
    ) -> Self {
        let n = subgraphs.num_subgraphs();
        let by_position: Vec<NodeSetFp> = (0..n)
            .map(|i| {
                let members = subgraphs.members_of(i);
                let clean = !dirty.get(i).copied().unwrap_or(true);
                if clean {
                    if let Some(fp) = members.first().and_then(|&m| self.anchored(m)) {
                        debug_assert_eq!(
                            fp,
                            NodeSetFp::of_members(members),
                            "clean subgraph's incremental fingerprint diverged from recompute"
                        );
                        return fp;
                    }
                }
                NodeSetFp::of_members(members)
            })
            .collect();
        let anchors = Self::index(
            (0..n)
                .zip(&by_position)
                .filter_map(|(i, &fp)| subgraphs.members_of(i).first().map(|&a| (a, fp))),
        );
        Self {
            by_position,
            anchors,
        }
    }

    /// [`refresh_positions`](Self::refresh_positions) driven by a
    /// [`PartitionDelta`]: only subgraphs of `partition` containing a dirty
    /// node re-fingerprint.
    pub fn refresh(&self, partition: &Partition, delta: &PartitionDelta) -> Self {
        self.refresh_positions(&partition.subgraphs(), &delta.dirty_subgraphs(partition))
    }

    /// The delta between the partition these fingerprints describe and
    /// `partition`: every node whose subgraph *member set* differs is
    /// marked dirty (a member set survives iff its anchor still maps to
    /// the same fingerprint). This turns an edit of unknown extent (e.g.
    /// a crossover child) into an honest delta satisfying the member-set
    /// invariant, so the incremental path can trust it.
    pub fn delta_against(&self, partition: &Partition) -> PartitionDelta {
        // Single pass over the assignment (like `compute`) — no member
        // vectors are materialized; this runs per crossover child.
        let assignment = partition.assignment();
        let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
        let mut acc = vec![NodeSetFp::EMPTY; max + 1];
        let mut anchor_of: Vec<Option<NodeId>> = vec![None; max + 1];
        for (i, &a) in assignment.iter().enumerate() {
            acc[a as usize].insert(NodeId::from_index(i));
            anchor_of[a as usize].get_or_insert(NodeId::from_index(i));
        }
        // One anchor lookup per subgraph, then one flag read per node.
        let unchanged: Vec<bool> = anchor_of
            .iter()
            .zip(&acc)
            .map(|(anchor, &fp)| anchor.is_some_and(|a| self.anchored(a) == Some(fp)))
            .collect();
        let mut delta = PartitionDelta::clean(partition.len());
        for (i, &a) in assignment.iter().enumerate() {
            if !unchanged[a as usize] {
                delta.touch(NodeId::from_index(i));
            }
        }
        delta
    }

    /// Per-position fingerprints, aligned with [`Partition::subgraphs`].
    pub fn positions(&self) -> &[NodeSetFp] {
        &self.by_position
    }

    /// Fingerprint of the subgraph anchored at `anchor` (its smallest
    /// member), if any.
    pub fn anchored(&self, anchor: NodeId) -> Option<NodeSetFp> {
        self.anchors
            .binary_search_by_key(&anchor, |&(a, _)| a)
            .ok()
            .map(|i| self.anchors[i].1)
    }

    /// Number of fingerprinted subgraphs.
    pub fn len(&self) -> usize {
        self.by_position.len()
    }

    /// `true` when no subgraph is covered.
    pub fn is_empty(&self) -> bool {
        self.by_position.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repair::repair_with_delta;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn compute_matches_from_subgraphs() {
        let p = Partition::from_assignment(vec![9, 2, 2, 9, 4]);
        let fps = PartitionFingerprints::compute(&p);
        assert_eq!(fps, PartitionFingerprints::from_subgraphs(&p.subgraphs()));
        assert_eq!(fps.len(), 3);
        // The anchor view agrees with membership.
        for (members, &fp) in p.subgraphs().iter().zip(fps.positions()) {
            assert_eq!(fps.anchored(members[0]), Some(fp));
            assert_eq!(fp, NodeSetFp::of_members(members));
        }
        // Non-anchor nodes resolve to nothing.
        assert_eq!(fps.anchored(NodeId::from_index(2)), None);
    }

    #[test]
    fn refresh_equals_compute_over_random_repair_sequences() {
        let g = cocco_graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(0xF1F0);
        let mut partition = Partition::connected_groups(&g, 3);
        let mut fps = PartitionFingerprints::compute(&partition);
        for step in 0..40 {
            // Random node move + repair, with the delta recorded.
            let mut delta = PartitionDelta::clean(g.len());
            let node = NodeId::from_index(rng.gen_range(0..g.len()));
            let target = rng.gen_range(0..partition.fresh_id() + 1);
            delta.touch_subgraph(&partition, partition.subgraph_of(node));
            delta.touch_subgraph(&partition, target);
            delta.touch(node);
            partition.assign(node, target);
            partition = repair_with_delta(&g, partition, &|m| m.len() <= 7, &mut delta);
            fps = fps.refresh(&partition, &delta);
            assert_eq!(
                fps,
                PartitionFingerprints::compute(&partition),
                "step {step}: incremental fingerprints diverged"
            );
        }
    }

    #[test]
    fn delta_against_marks_exactly_changed_member_sets() {
        let before = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        let fps = PartitionFingerprints::compute(&before);
        // Move node 3 from subgraph 1 to subgraph 2: subgraphs 1 and 2
        // change, subgraph 0 does not.
        let after = Partition::from_assignment(vec![0, 0, 1, 2, 2]);
        let delta = fps.delta_against(&after);
        assert!(!delta.is_dirty(NodeId::from_index(0)));
        assert!(!delta.is_dirty(NodeId::from_index(1)));
        assert!(delta.is_dirty(NodeId::from_index(2)));
        assert!(delta.is_dirty(NodeId::from_index(3)));
        assert!(delta.is_dirty(NodeId::from_index(4)));
        // Identical partitions produce a clean delta even under different
        // subgraph ids.
        let renumbered = Partition::from_assignment(vec![7, 7, 3, 3, 5]);
        assert!(fps.delta_against(&renumbered).is_clean());
    }

    #[test]
    fn delta_against_catches_same_anchor_different_members() {
        // {0,1,2} keeps its anchor when it shrinks to {0,1}: the anchor
        // alone must not make it look clean — the fingerprint does the
        // discriminating.
        let before = Partition::from_assignment(vec![0, 0, 0, 1]);
        let fps = PartitionFingerprints::compute(&before);
        let after = Partition::from_assignment(vec![0, 0, 1, 1]);
        let delta = fps.delta_against(&after);
        assert!(delta.is_all(), "both member sets changed");
    }

    #[test]
    fn refresh_with_conservative_extra_dirt_is_still_exact() {
        let p = Partition::from_assignment(vec![0, 0, 1, 1]);
        let fps = PartitionFingerprints::compute(&p);
        // Everything dirty: refresh degenerates to compute.
        let all = PartitionDelta::all(4);
        assert_eq!(fps.refresh(&p, &all), PartitionFingerprints::compute(&p));
    }
}
