//! Dirty-node tracking across mutation and repair — the change record the
//! incremental evaluation path consumes.

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
/// bit-for-bit the same member set as before, so its cached evaluation
/// terms can be reused. The consumer (`cocco-engine`) additionally
/// re-checks the one cross-subgraph coupling (the successor's weight
/// prefetch) itself, so an over-conservative delta costs time and an
/// emitter bug is bounded by that check plus the property tests.
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
    /// conservative record for edits of unknown extent, e.g. crossover).
    pub fn all(n: usize) -> Self {
        Self {
            dirty: vec![true; n],
        }
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

    /// Marks every node currently assigned to `subgraph` in `partition`.
    pub fn touch_subgraph(&mut self, partition: &Partition, subgraph: u32) {
        for (i, &a) in partition.assignment().iter().enumerate() {
            if a == subgraph {
                self.dirty[i] = true;
            }
        }
    }

    /// Marks everything dirty.
    pub fn touch_all(&mut self) {
        self.dirty.fill(true);
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
        delta.touch_subgraph(&p, 3);
        assert!(delta.is_dirty(NodeId::from_index(2)));
        assert!(delta.is_dirty(NodeId::from_index(3)));
        assert!(delta.is_dirty(NodeId::from_index(4)));
        assert!(!delta.is_dirty(NodeId::from_index(0)));
        assert_eq!(delta.dirty_count(), 3);
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
}
