//! The buffer-region manager of paper Figure 8.

use crate::error::MemError;
use crate::footprint::node_footprint;
use crate::region::{Region, RegionKind};
use cocco_graph::{Graph, NodeId};
use cocco_tiling::ExecutionScheme;
use serde::{Deserialize, Serialize};

/// Models the NPU's buffer-region manager: a `2N`-deep register file whose
/// entry pairs hold the start and end address of each logical region, used
/// to partition the multi-bank global buffer for contiguous layer
/// processing (paper Fig. 8).
///
/// # Examples
///
/// ```
/// use cocco_mem::BufferRegionManager;
///
/// // The paper's configuration: 1 MB buffer, N = 64 regions, 17-bit
/// // addresses => a 272-byte register file (0.18% of the NPU core area).
/// let mgr = BufferRegionManager::new(1 << 20, 64);
/// assert_eq!(mgr.register_file_bytes(), 272);
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BufferRegionManager {
    capacity: u64,
    max_regions: usize,
    regions: Vec<Region>,
    cursor: u64,
}

impl BufferRegionManager {
    /// Creates a manager for a buffer of `capacity` bytes supporting up to
    /// `max_regions` logical regions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `max_regions` is zero.
    pub fn new(capacity: u64, max_regions: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be nonzero");
        assert!(max_regions > 0, "region count must be nonzero");
        Self {
            capacity,
            max_regions,
            regions: Vec::new(),
            cursor: 0,
        }
    }

    /// Buffer capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Maximum number of logical regions (`N`).
    pub fn max_regions(&self) -> usize {
        self.max_regions
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.cursor
    }

    /// Bytes still available.
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.cursor
    }

    /// The allocated regions, in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Size of the manager's register file: `2N` entries of
    /// `ceil(log2(capacity / 8))` bits each (addresses index 64-bit buffer
    /// words, as in the paper's chip), rounded up to whole bytes.
    ///
    /// With the paper's parameters (N = 64, 1 MB 64-bit-wide buffer ⇒
    /// 17-bit word addresses) this is 272 bytes — a 0.18% area overhead on
    /// their core.
    pub fn register_file_bytes(&self) -> u64 {
        let words = (self.capacity / 8).max(2);
        let addr_bits = 64 - u64::from((words - 1).leading_zeros());
        (2 * self.max_regions as u64 * addr_bits).div_ceil(8)
    }

    /// Allocates a region of `bytes` for `node`.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer or the register file is exhausted.
    pub fn allocate(
        &mut self,
        node: NodeId,
        kind: RegionKind,
        bytes: u64,
    ) -> Result<Region, MemError> {
        if self.regions.len() + 1 > self.max_regions {
            return Err(MemError::TooManyRegions {
                needed: self.regions.len() + 1,
                max: self.max_regions,
            });
        }
        if self.cursor + bytes > self.capacity {
            return Err(MemError::ExceedsCapacity {
                needed: self.cursor + bytes,
                capacity: self.capacity,
            });
        }
        let region = Region {
            node,
            kind,
            start: self.cursor,
            end: self.cursor + bytes,
        };
        self.cursor += bytes;
        self.regions.push(region);
        Ok(region)
    }

    /// Releases every region (the compiler reprograms the register file
    /// between subgraphs).
    pub fn reset(&mut self) {
        self.regions.clear();
        self.cursor = 0;
    }

    /// Allocates MAIN and SIDE regions for every node of `scheme`, sized by
    /// [`node_footprint`], and returns the resulting plan. The manager is
    /// reset first.
    ///
    /// # Errors
    ///
    /// Returns an error if capacity or the region register file would be
    /// exceeded; the manager is left reset in that case.
    pub fn allocate_subgraph(
        &mut self,
        graph: &Graph,
        scheme: &ExecutionScheme,
        elem_bytes: u64,
    ) -> Result<AllocationPlan, MemError> {
        self.reset();
        let mut plan = AllocationPlan {
            regions: Vec::with_capacity(scheme.len()),
        };
        for (id, s) in scheme.iter() {
            let node = node_footprint(graph, id, &s.tiling, elem_bytes);
            let regions = [
                (RegionKind::Main, node.main_bytes),
                (RegionKind::Side, node.side_bytes),
            ];
            for (kind, bytes) in regions.into_iter().take(node.regions()) {
                match self.allocate(id, kind, bytes) {
                    Ok(r) => plan.regions.push(r),
                    Err(e) => {
                        self.reset();
                        return Err(e);
                    }
                }
            }
        }
        Ok(plan)
    }
}

/// The set of regions programmed into the manager for one subgraph.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AllocationPlan {
    regions: Vec<Region>,
}

impl AllocationPlan {
    /// The allocated regions in allocation order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Total allocated bytes.
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(Region::len).sum()
    }

    /// The regions owned by `node`.
    pub fn regions_of(&self, node: NodeId) -> impl Iterator<Item = &Region> {
        self.regions.iter().filter(move |r| r.node == node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_tiling::{derive_scheme, Mapper};

    #[test]
    fn paper_register_file_size() {
        let mgr = BufferRegionManager::new(1 << 20, 64);
        assert_eq!(mgr.register_file_bytes(), 272);
    }

    #[test]
    fn allocation_is_contiguous_and_disjoint() {
        let mut mgr = BufferRegionManager::new(1024, 8);
        let a = mgr
            .allocate(NodeId::from_index(0), RegionKind::Main, 100)
            .unwrap();
        let b = mgr
            .allocate(NodeId::from_index(1), RegionKind::Main, 200)
            .unwrap();
        assert_eq!(a.end, b.start);
        assert_eq!(mgr.used_bytes(), 300);
        assert_eq!(mgr.free_bytes(), 724);
    }

    #[test]
    fn capacity_enforced() {
        let mut mgr = BufferRegionManager::new(128, 8);
        mgr.allocate(NodeId::from_index(0), RegionKind::Main, 100)
            .unwrap();
        let err = mgr
            .allocate(NodeId::from_index(1), RegionKind::Main, 100)
            .unwrap_err();
        assert_eq!(
            err,
            MemError::ExceedsCapacity {
                needed: 200,
                capacity: 128
            }
        );
    }

    #[test]
    fn region_count_enforced() {
        let mut mgr = BufferRegionManager::new(1024, 2);
        mgr.allocate(NodeId::from_index(0), RegionKind::Main, 1)
            .unwrap();
        mgr.allocate(NodeId::from_index(1), RegionKind::Main, 1)
            .unwrap();
        let err = mgr
            .allocate(NodeId::from_index(2), RegionKind::Main, 1)
            .unwrap_err();
        assert_eq!(err, MemError::TooManyRegions { needed: 3, max: 2 });
    }

    #[test]
    fn reset_clears_state() {
        let mut mgr = BufferRegionManager::new(1024, 4);
        mgr.allocate(NodeId::from_index(0), RegionKind::Main, 64)
            .unwrap();
        mgr.reset();
        assert_eq!(mgr.used_bytes(), 0);
        assert!(mgr.regions().is_empty());
    }

    #[test]
    fn subgraph_allocation_matches_footprint() {
        let g = cocco_graph::models::diamond();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let fp = crate::footprint::subgraph_footprint(&g, &members, &scheme, 1);
        let mut mgr = BufferRegionManager::new(1 << 20, 64);
        let plan = mgr.allocate_subgraph(&g, &scheme, 1).unwrap();
        assert_eq!(plan.total_bytes(), fp.activation_bytes);
        assert_eq!(plan.regions().len(), fp.regions);
    }

    #[test]
    fn subgraph_allocation_failure_resets() {
        let g = cocco_graph::models::diamond();
        let members: Vec<_> = g.node_ids().collect();
        let scheme = derive_scheme(&g, &members, &Mapper::default()).unwrap();
        let mut mgr = BufferRegionManager::new(8, 64);
        assert!(mgr.allocate_subgraph(&g, &scheme, 1).is_err());
        assert_eq!(mgr.used_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_capacity_panics() {
        BufferRegionManager::new(0, 4);
    }
}
