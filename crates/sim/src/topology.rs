//! Machine topology: ranks grouped into shared-memory nodes.
//!
//! The HSS paper (§6.1.1) distinguishes between *processor cores* (`p` of
//! them) and *physical nodes* (`n` of them, each with `cores_per_node`
//! cores, 16 on Mira).  The node-level optimisations — message combining in
//! the all-to-all exchange and node-level data partitioning — need a map
//! from ranks to nodes and back.  [`Topology`] provides exactly that.

use serde::{Deserialize, Serialize};

/// Identifier of a simulated processor core ("rank" in MPI terms, "PE" in
/// Charm++ terms).  Ranks are numbered `0..p`.
pub type RankId = usize;

/// Identifier of a simulated physical node.  Nodes are numbered `0..n`.
pub type NodeId = usize;

/// Static description of the simulated machine: how many ranks there are and
/// how they are grouped into shared-memory nodes.
///
/// Ranks are assigned to nodes in contiguous blocks: node `k` owns ranks
/// `k * cores_per_node .. (k + 1) * cores_per_node` (the last node may own
/// fewer if `ranks` is not a multiple of `cores_per_node`).  This matches the
/// default block mapping used on Blue Gene/Q class machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Topology {
    ranks: usize,
    cores_per_node: usize,
}

impl Topology {
    /// Create a topology with `ranks` processor cores grouped into nodes of
    /// `cores_per_node` cores each.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0` or `cores_per_node == 0`.
    pub fn new(ranks: usize, cores_per_node: usize) -> Self {
        assert!(ranks > 0, "topology needs at least one rank");
        assert!(cores_per_node > 0, "topology needs at least one core per node");
        Self { ranks, cores_per_node }
    }

    /// A topology where every rank is its own node (no shared memory), i.e.
    /// the configuration of Table 6.1 ("without the shared memory
    /// optimization").
    pub fn flat(ranks: usize) -> Self {
        Self::new(ranks, 1)
    }

    /// A Mira-like topology: 16 cores per node (§6.2).
    pub fn mira(ranks: usize) -> Self {
        Self::new(ranks, 16)
    }

    /// Total number of processor cores `p`.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// Number of cores in one shared-memory node.
    pub fn cores_per_node(&self) -> usize {
        self.cores_per_node
    }

    /// Number of physical nodes `n = ceil(p / cores_per_node)`.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.cores_per_node)
    }

    /// The node that owns `rank`.
    pub fn node_of(&self, rank: RankId) -> NodeId {
        debug_assert!(rank < self.ranks);
        rank / self.cores_per_node
    }

    /// The ranks owned by `node`, as a range.
    pub fn ranks_of(&self, node: NodeId) -> std::ops::Range<RankId> {
        let start = node * self.cores_per_node;
        let end = ((node + 1) * self.cores_per_node).min(self.ranks);
        start..end
    }

    /// The first (lowest-numbered) rank of `node`; used as the node leader
    /// for node-level collectives.
    pub fn leader_of(&self, node: NodeId) -> RankId {
        node * self.cores_per_node
    }

    /// Number of ranks on `node` (the last node may be partially filled).
    pub fn node_size(&self, node: NodeId) -> usize {
        self.ranks_of(node).len()
    }

    /// Iterate over all rank ids.
    pub fn iter_ranks(&self) -> std::ops::Range<RankId> {
        0..self.ranks
    }

    /// Iterate over all node ids.
    pub fn iter_nodes(&self) -> std::ops::Range<NodeId> {
        0..self.nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_topology_is_one_rank_per_node() {
        let t = Topology::flat(8);
        assert_eq!(t.ranks(), 8);
        assert_eq!(t.nodes(), 8);
        for r in t.iter_ranks() {
            assert_eq!(t.node_of(r), r);
            assert_eq!(t.leader_of(r), r);
            assert_eq!(t.ranks_of(r), r..r + 1);
        }
    }

    #[test]
    fn mira_topology_groups_sixteen_cores() {
        let t = Topology::mira(64);
        assert_eq!(t.cores_per_node(), 16);
        assert_eq!(t.nodes(), 4);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(15), 0);
        assert_eq!(t.node_of(16), 1);
        assert_eq!(t.node_of(63), 3);
        assert_eq!(t.ranks_of(1), 16..32);
        assert_eq!(t.leader_of(2), 32);
        assert_eq!(t.leader_of(t.node_of(49)), 48);
    }

    #[test]
    fn partially_filled_last_node() {
        let t = Topology::new(10, 4);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_size(0), 4);
        assert_eq!(t.node_size(2), 2);
        assert_eq!(t.ranks_of(2), 8..10);
    }

    #[test]
    #[should_panic]
    fn zero_ranks_panics() {
        let _ = Topology::new(0, 4);
    }

    #[test]
    #[should_panic]
    fn zero_cores_per_node_panics() {
        let _ = Topology::new(4, 0);
    }
}
