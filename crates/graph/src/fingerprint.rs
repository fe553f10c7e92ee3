//! 128-bit node-set fingerprints — the precomputed cache identity of a
//! subgraph.
//!
//! A [`NodeSetFp`] condenses a set of [`NodeId`]s into 128 bits by summing
//! (wrapping) two independently mixed 64-bit hashes per node. The sum is
//! **commutative and invertible**: member order never matters (two listings
//! of the same set always collide, which is exactly right — per-subgraph
//! evaluation is a function of the *set*), and single nodes can be added or
//! removed in O(1), so a fingerprint can be maintained incrementally while
//! a partition mutates instead of being re-derived from member vectors on
//! every cache probe.
//!
//! Equality of fingerprints is treated as equality of the underlying sets.
//! With 128 uniformly mixed bits an accidental collision needs on the order
//! of 2^64 distinct subgraphs (birthday bound) — unreachable for any
//! realistic exploration, and the same trust model as content-addressed
//! storage.

use std::hash::{BuildHasherDefault, Hasher};

use crate::graph::NodeId;

/// `splitmix64` finalizer: a cheap, high-quality 64-bit mixer — the single
/// mixing primitive every fingerprint-derived identity in the workspace
/// (node fingerprints, cache-key folds) is built from, exported so the
/// domains can never drift apart.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The two per-node hash lanes, derived from independent salts so the two
/// 64-bit halves of a fingerprint never correlate.
#[inline]
fn node_lanes(node: NodeId) -> (u64, u64) {
    let i = node.index() as u64;
    (
        mix64(i ^ 0x9E37_79B9_7F4A_7C15),
        mix64(i ^ 0xC2B2_AE3D_27D4_EB4F),
    )
}

/// A 128-bit content fingerprint of a set of graph nodes.
///
/// # Examples
///
/// ```
/// use cocco_graph::{NodeId, NodeSetFp};
///
/// let a = NodeId::from_index(3);
/// let b = NodeId::from_index(7);
/// // Order-independent: {a, b} == {b, a}.
/// assert_eq!(NodeSetFp::of_members(&[a, b]), NodeSetFp::of_members(&[b, a]));
/// // Incremental: insert/remove are exact inverses.
/// let mut fp = NodeSetFp::of_members(&[a, b]);
/// fp.remove(b);
/// assert_eq!(fp, NodeSetFp::of_members(&[a]));
/// fp.insert(b);
/// assert_eq!(fp, NodeSetFp::of_members(&[a, b]));
/// ```
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeSetFp {
    /// First 64-bit lane.
    pub lo: u64,
    /// Second, independently salted 64-bit lane.
    pub hi: u64,
}

impl NodeSetFp {
    /// The fingerprint of the empty set.
    pub const EMPTY: NodeSetFp = NodeSetFp { lo: 0, hi: 0 };

    /// The fingerprint of `members` (order-independent, no allocation).
    pub fn of_members(members: &[NodeId]) -> Self {
        let mut fp = Self::EMPTY;
        for &m in members {
            fp.insert(m);
        }
        fp
    }

    /// Adds one node to the set.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        let (lo, hi) = node_lanes(node);
        self.lo = self.lo.wrapping_add(lo);
        self.hi = self.hi.wrapping_add(hi);
    }

    /// Removes one node from the set (the exact inverse of
    /// [`insert`](Self::insert)).
    #[inline]
    pub fn remove(&mut self, node: NodeId) {
        let (lo, hi) = node_lanes(node);
        self.lo = self.lo.wrapping_sub(lo);
        self.hi = self.hi.wrapping_sub(hi);
    }
}

/// A pass-through hasher for keys that *are already* uniform hashes
/// (fingerprints, fingerprint-derived cache keys): instead of re-running
/// SipHash over the words, it folds them with two cheap operations. Using
/// it as a `HashMap` build-hasher removes the per-probe hash walk that a
/// default-hashed map would pay.
#[derive(Clone, Default)]
pub(crate) struct FpHasher {
    state: u64,
}

impl Hasher for FpHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Only reached by non-u64 key components (none in practice).
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.state = self.state.rotate_left(29) ^ word;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// The `BuildHasher` for fingerprint-keyed maps.
pub(crate) type BuildFpHasher = BuildHasherDefault<FpHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn ids(indices: &[usize]) -> Vec<NodeId> {
        indices.iter().map(|&i| NodeId::from_index(i)).collect()
    }

    #[test]
    fn order_independent_and_boundary_sensitive() {
        let a = NodeSetFp::of_members(&ids(&[0, 1, 2]));
        let b = NodeSetFp::of_members(&ids(&[2, 0, 1]));
        assert_eq!(a, b);
        assert_ne!(a, NodeSetFp::of_members(&ids(&[0, 1])));
        assert_ne!(a, NodeSetFp::of_members(&ids(&[0, 1, 3])));
        assert_ne!(NodeSetFp::of_members(&ids(&[0])), NodeSetFp::EMPTY);
    }

    #[test]
    fn insert_remove_round_trip() {
        let members = ids(&[5, 9, 13, 21]);
        let mut fp = NodeSetFp::of_members(&members);
        fp.remove(members[2]);
        fp.remove(members[0]);
        assert_eq!(fp, NodeSetFp::of_members(&ids(&[9, 21])));
        fp.insert(members[0]);
        fp.insert(members[2]);
        assert_eq!(fp, NodeSetFp::of_members(&members));
    }

    #[test]
    fn distinct_small_sets_do_not_collide() {
        // Every subset of 10 nodes: 1024 fingerprints, all distinct.
        let mut seen = HashSet::new();
        for mask in 0u32..1024 {
            let members: Vec<NodeId> = (0..10)
                .filter(|i| mask & (1 << i) != 0)
                .map(NodeId::from_index)
                .collect();
            let fp = NodeSetFp::of_members(&members);
            assert!(seen.insert((fp.lo, fp.hi)), "collision at mask {mask}");
        }
    }

    #[test]
    fn fp_hasher_spreads_keys() {
        // Fingerprint-keyed maps must not degenerate into one bucket.
        let mut map: std::collections::HashMap<NodeSetFp, usize, BuildFpHasher> =
            Default::default();
        for i in 0..256 {
            map.insert(NodeSetFp::of_members(&ids(&[i])), i);
        }
        assert_eq!(map.len(), 256);
        for i in 0..256 {
            assert_eq!(map[&NodeSetFp::of_members(&ids(&[i]))], i);
        }
    }
}
