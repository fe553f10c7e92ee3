//! Dirty-node tracking across mutation and repair — the change record that
//! seeds an offspring's repair from its parent.

use crate::partition::Partition;
use cocco_graph::NodeId;

/// Records which **nodes** of a partition had their subgraph membership
/// changed by a sequence of edits (mutations, repair passes).
///
/// The delta is node-indexed rather than subgraph-indexed on purpose:
/// repair renumbers subgraph ids freely (canonicalization), but node ids
/// are stable, so dirt recorded before repair survives it. The invariant
/// every emitter maintains is *member-set* based:
///
/// > if a subgraph's member set differs from the member set it had in the
/// > previously scored partition, **all** of its current and former
/// > members are marked dirty.
///
/// Operators therefore mark whole affected subgraphs (source and target of
/// a node move, both sides of a merge, every piece of a split), not just
/// the moved node. A subgraph containing no dirty node is guaranteed to be
/// bit-for-bit the same member set as before, so repair may take it for
/// one of the parent's subgraphs (see `ParentSeed`). An over-conservative
/// delta costs time; an under-reporting one is a correctness bug, which
/// the property tests walk for. Edits of unknown extent derive an honest
/// delta with [`between`](Self::between).
///
/// # Examples
///
/// ```
/// use cocco_partition::{Partition, PartitionDelta};
/// use cocco_graph::NodeId;
///
/// let p = Partition::from_assignment(vec![0, 0, 1, 1]);
/// let mut delta = PartitionDelta::clean(4);
/// assert!(!delta.is_dirty(NodeId::from_index(0)));
/// delta.touch(NodeId::from_index(2));
/// assert_eq!(delta.dirty_subgraphs(&p), vec![false, true]);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionDelta {
    dirty: Vec<bool>,
}

impl PartitionDelta {
    /// A delta over `n` nodes with nothing marked dirty.
    pub fn clean(n: usize) -> Self {
        Self {
            dirty: vec![false; n],
        }
    }

    /// A delta over `n` nodes with everything marked dirty (the
    /// conservative record when no parent is known).
    pub fn all(n: usize) -> Self {
        Self {
            dirty: vec![true; n],
        }
    }

    /// The delta from `before` to `after`, two partitions of the same
    /// nodes: a node is dirty iff its subgraph's member set in `after` is
    /// not a member set of `before`. Each `after` label is compared with
    /// the `before` label of its first node: the sets are equal iff every
    /// member of the `after` label carries that `before` label and the two
    /// labels hold equally many nodes. Two counting passes, no hashing.
    ///
    /// # Panics
    ///
    /// Panics if the partitions cover different node counts.
    ///
    /// # Examples
    ///
    /// ```
    /// use cocco_partition::{Partition, PartitionDelta};
    /// use cocco_graph::NodeId;
    ///
    /// let before = Partition::from_assignment(vec![0, 0, 1, 1]);
    /// // Node 3 moves into subgraph 0: both member sets change.
    /// let after = Partition::from_assignment(vec![0, 0, 1, 0]);
    /// assert!(PartitionDelta::between(&before, &after).is_all());
    /// // Renumbering alone changes no member set.
    /// let renumbered = Partition::from_assignment(vec![5, 5, 2, 2]);
    /// assert!(PartitionDelta::between(&before, &renumbered).is_clean());
    /// let split = Partition::from_assignment(vec![0, 0, 1, 2]);
    /// let delta = PartitionDelta::between(&before, &split);
    /// assert!(!delta.is_dirty(NodeId::from_index(1)));
    /// assert!(delta.is_dirty(NodeId::from_index(2)));
    /// ```
    pub fn between(before: &Partition, after: &Partition) -> Self {
        assert_eq!(
            before.len(),
            after.len(),
            "partitions cover different graphs"
        );
        let (before, after) = (before.assignment(), after.assignment());
        let before_sizes = label_sizes(before);
        let after_sizes = label_sizes(after);
        // Per `after` label: the `before` label of its first node, and
        // whether every later member carries it too.
        let mut anchor = vec![u32::MAX; after_sizes.len()];
        let mut uniform = vec![true; after_sizes.len()];
        for (&a, &b) in after.iter().zip(before) {
            let anchor = &mut anchor[a as usize];
            if *anchor == u32::MAX {
                *anchor = b;
            } else if *anchor != b {
                uniform[a as usize] = false;
            }
        }
        let dirty = after
            .iter()
            .map(|&a| {
                let a = a as usize;
                !uniform[a] || after_sizes[a] != before_sizes[anchor[a] as usize]
            })
            .collect();
        Self { dirty }
    }

    /// Number of nodes covered.
    pub fn len(&self) -> usize {
        self.dirty.len()
    }

    /// `true` when the delta covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }

    /// Marks one node dirty.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn touch(&mut self, node: NodeId) {
        self.dirty[node.index()] = true;
    }

    /// Marks every member of `members` dirty.
    pub fn touch_members(&mut self, members: &[NodeId]) {
        for &m in members {
            self.dirty[m.index()] = true;
        }
    }

    /// Marks every node currently assigned to subgraph `a` or `b` in
    /// `partition` (one pass): the two member sets a move between `a` and
    /// `b` changes. Pass `a == b` to mark one subgraph.
    pub fn touch_subgraphs(&mut self, partition: &Partition, a: u32, b: u32) {
        for (dirty, &s) in self.dirty.iter_mut().zip(partition.assignment()) {
            if s == a || s == b {
                *dirty = true;
            }
        }
    }

    /// Whether `node` is marked dirty.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn is_dirty(&self, node: NodeId) -> bool {
        self.dirty[node.index()]
    }

    /// The dirty flag of every node, indexed by node id.
    pub(crate) fn flags(&self) -> &[bool] {
        &self.dirty
    }

    /// Number of dirty nodes.
    pub fn dirty_count(&self) -> usize {
        self.dirty.iter().filter(|&&d| d).count()
    }

    /// `true` when every node is dirty (no reuse possible).
    pub fn is_all(&self) -> bool {
        self.dirty.iter().all(|&d| d)
    }

    /// `true` when no node is dirty.
    pub fn is_clean(&self) -> bool {
        !self.dirty.iter().any(|&d| d)
    }

    /// Folds another delta's dirt into this one.
    ///
    /// # Panics
    ///
    /// Panics if the deltas cover different node counts.
    pub fn union(&mut self, other: &PartitionDelta) {
        assert_eq!(self.len(), other.len(), "deltas cover different graphs");
        for (d, &o) in self.dirty.iter_mut().zip(&other.dirty) {
            *d |= o;
        }
    }

    /// Projects node dirt onto `partition`'s subgraphs: one flag per
    /// subgraph in the order [`Partition::subgraphs`] returns them, `true`
    /// iff the subgraph contains a dirty node.
    ///
    /// # Panics
    ///
    /// Panics if the delta does not cover the partition's node count.
    pub fn dirty_subgraphs(&self, partition: &Partition) -> Vec<bool> {
        assert_eq!(
            self.len(),
            partition.len(),
            "delta does not cover the partition"
        );
        let assignment = partition.assignment();
        let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
        // Mirror Partition::subgraphs(): per id, (has members, is dirty),
        // then keep the flags of non-empty ids in id order.
        let mut populated = vec![false; max + 1];
        let mut dirty = vec![false; max + 1];
        for (i, &a) in assignment.iter().enumerate() {
            populated[a as usize] = true;
            dirty[a as usize] |= self.dirty[i];
        }
        populated
            .into_iter()
            .zip(dirty)
            .filter(|(p, _)| *p)
            .map(|(_, d)| d)
            .collect()
    }
}

/// The member count of every label of `assignment`, indexed by label.
fn label_sizes(assignment: &[u32]) -> Vec<u32> {
    let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
    let mut sizes = vec![0u32; max + 1];
    for &a in assignment {
        sizes[a as usize] += 1;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_and_all_constructors() {
        let clean = PartitionDelta::clean(5);
        assert!(clean.is_clean());
        assert!(!clean.is_all());
        assert_eq!(clean.dirty_count(), 0);
        let all = PartitionDelta::all(5);
        assert!(all.is_all());
        assert_eq!(all.dirty_count(), 5);
    }

    #[test]
    fn touch_variants_mark_expected_nodes() {
        let p = Partition::from_assignment(vec![0, 0, 3, 3, 7]);
        let mut delta = PartitionDelta::clean(5);
        delta.touch(NodeId::from_index(4));
        delta.touch_subgraphs(&p, 3, 3);
        assert!(delta.is_dirty(NodeId::from_index(2)));
        assert!(delta.is_dirty(NodeId::from_index(3)));
        assert!(delta.is_dirty(NodeId::from_index(4)));
        assert!(!delta.is_dirty(NodeId::from_index(0)));
        assert_eq!(delta.dirty_count(), 3);
        let mut pair = PartitionDelta::clean(5);
        pair.touch_subgraphs(&p, 0, 7);
        assert_eq!(pair.dirty_count(), 3);
        assert!(pair.is_dirty(NodeId::from_index(1)));
        assert!(!pair.is_dirty(NodeId::from_index(2)));
        // A fresh (unused) label marks nothing of its own.
        let mut fresh = PartitionDelta::clean(5);
        fresh.touch_subgraphs(&p, 3, p.fresh_id());
        assert_eq!(fresh.dirty_count(), 2);
    }

    #[test]
    fn union_folds_dirt() {
        let mut a = PartitionDelta::clean(3);
        a.touch(NodeId::from_index(0));
        let mut b = PartitionDelta::clean(3);
        b.touch(NodeId::from_index(2));
        a.union(&b);
        assert!(a.is_dirty(NodeId::from_index(0)));
        assert!(!a.is_dirty(NodeId::from_index(1)));
        assert!(a.is_dirty(NodeId::from_index(2)));
    }

    #[test]
    fn dirty_subgraphs_follow_subgraph_order_with_sparse_ids() {
        // Sparse ids 2 and 9: subgraphs() returns [members of 2, members
        // of 9]; the flags must line up positionally.
        let p = Partition::from_assignment(vec![9, 2, 2, 9]);
        let mut delta = PartitionDelta::clean(4);
        delta.touch(NodeId::from_index(0)); // member of subgraph 9
        assert_eq!(delta.dirty_subgraphs(&p), vec![false, true]);
        delta.touch(NodeId::from_index(1)); // member of subgraph 2
        assert_eq!(delta.dirty_subgraphs(&p), vec![true, true]);
    }

    #[test]
    fn between_marks_exactly_changed_member_sets() {
        let before = Partition::from_assignment(vec![0, 0, 1, 1, 2]);
        // Move node 3 from subgraph 1 to subgraph 2: subgraphs 1 and 2
        // change, subgraph 0 does not.
        let after = Partition::from_assignment(vec![0, 0, 1, 2, 2]);
        let delta = PartitionDelta::between(&before, &after);
        assert!(!delta.is_dirty(NodeId::from_index(0)));
        assert!(!delta.is_dirty(NodeId::from_index(1)));
        assert!(delta.is_dirty(NodeId::from_index(2)));
        assert!(delta.is_dirty(NodeId::from_index(3)));
        assert!(delta.is_dirty(NodeId::from_index(4)));
        // Identical partitions produce a clean delta even under different
        // subgraph ids.
        let renumbered = Partition::from_assignment(vec![7, 7, 3, 3, 5]);
        assert!(PartitionDelta::between(&before, &renumbered).is_clean());
    }

    #[test]
    fn between_catches_same_anchor_different_members() {
        // {0,1,2} keeps its first node when it shrinks to {0,1}: the first
        // node alone must not make it look clean — the member counts do
        // the discriminating.
        let before = Partition::from_assignment(vec![0, 0, 0, 1]);
        let after = Partition::from_assignment(vec![0, 0, 1, 1]);
        let delta = PartitionDelta::between(&before, &after);
        assert!(delta.is_all(), "both member sets changed");
    }

    /// The hashing `between` the counting one replaced: fingerprint every
    /// label's set in both assignments, then compare each `after` label
    /// with the `before` set holding its first node.
    fn between_by_fingerprints(before: &Partition, after: &Partition) -> PartitionDelta {
        use cocco_graph::NodeSetFp;
        let fps = |assignment: &[u32]| {
            let max = assignment.iter().copied().max().map_or(0, |m| m as usize);
            let mut fps = vec![NodeSetFp::EMPTY; max + 1];
            for (i, &a) in assignment.iter().enumerate() {
                fps[a as usize].insert(NodeId::from_index(i));
            }
            fps
        };
        let (b, a) = (fps(before.assignment()), fps(after.assignment()));
        let dirty = after
            .assignment()
            .iter()
            .zip(before.assignment())
            .map(|(&x, &y)| a[x as usize] != b[y as usize])
            .collect();
        PartitionDelta { dirty }
    }

    #[test]
    fn between_matches_the_fingerprint_oracle_on_random_edits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xde17a);
        for _ in 0..500 {
            let n = rng.gen_range(1..40usize);
            let k = rng.gen_range(1..=8u32);
            let before: Vec<u32> = (0..n).map(|_| rng.gen_range(0..k)).collect();
            // Relabel (sometimes sparsely), then move a few nodes.
            let spread = rng.gen_range(1..=3u32);
            let mut after: Vec<u32> = before.iter().map(|&x| (k - 1 - x) * spread).collect();
            for _ in 0..rng.gen_range(0..3) {
                after[rng.gen_range(0..n)] = rng.gen_range(0..k + 1) * spread;
            }
            let (before, after) = (
                Partition::from_assignment(before),
                Partition::from_assignment(after),
            );
            assert_eq!(
                PartitionDelta::between(&before, &after),
                between_by_fingerprints(&before, &after),
                "{before:?} -> {after:?}"
            );
        }
    }
}
