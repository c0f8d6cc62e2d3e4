//! The data-center topology as a logical aggregation tree.
//!
//! Placement in the paper (Sections III–IV) treats the DCN as a hierarchy of
//! substructures — server ⊂ rack ⊂ pod ⊂ subtree — and assigns container
//! groups to the smallest left-most subtree that fits. We model exactly that
//! hierarchy: every internal node aggregates the physical switches of its
//! level (`switch_count`) and carries the *outbound* (bisection) bandwidth
//! between its subtree and the rest of the data center, which is what
//! Eq. (4)/(5) reserve against.

use crate::resources::Resources;

/// Identifier of a node (server or switch aggregate) in a [`DcTree`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

/// Identifier of a server (dense, `0..server_count`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServerId(pub usize);

/// What a tree node represents.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// A physical server.
    Server {
        /// Dense server index.
        server: ServerId,
    },
    /// An aggregate of physical switches at one level of the hierarchy
    /// (a rack's ToR, a pod's aggregation layer, the core).
    Switch {
        /// Distance from the root (0 = core).
        level: u8,
        /// Number of physical switches this node aggregates.
        switch_count: usize,
    },
}

/// One node of the topology tree.
#[derive(Clone, Debug)]
pub struct TreeNode {
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Children in left-to-right order.
    pub children: Vec<NodeId>,
    /// Node kind.
    pub kind: NodeKind,
    /// Bisection bandwidth between this subtree and the rest of the DC, in
    /// Mbps. Infinite for the root (no outbound link).
    pub uplink_mbps: f64,
    /// Bandwidth currently reserved on the outbound link(s).
    pub reserved_mbps: f64,
    /// Depth (root = 0).
    pub depth: usize,
}

/// Per-server bookkeeping.
#[derive(Clone, Debug)]
pub struct ServerInfo {
    /// The server's node in the tree.
    pub node: NodeId,
    /// Resource capacity.
    pub resources: Resources,
    /// Whether the server is failed/unavailable.
    pub failed: bool,
}

/// Error from bandwidth reservation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct InsufficientBandwidth {
    /// The node whose outbound link lacked capacity.
    pub node: NodeId,
    /// Requested Mbps.
    pub requested: f64,
    /// Available (residual) Mbps.
    pub available: f64,
}

impl std::fmt::Display for InsufficientBandwidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "insufficient bandwidth at node {}: requested {:.1} Mbps, {:.1} available",
            self.node.0, self.requested, self.available
        )
    }
}

impl std::error::Error for InsufficientBandwidth {}

/// The logical data-center topology tree.
#[derive(Clone, Debug)]
pub struct DcTree {
    nodes: Vec<TreeNode>,
    servers: Vec<ServerInfo>,
    root: NodeId,
    name: String,
}

impl DcTree {
    /// Builds a tree from raw parts. Intended for the builders in
    /// [`crate::builders`]; most users should start there.
    pub(crate) fn from_parts(
        nodes: Vec<TreeNode>,
        servers: Vec<ServerInfo>,
        root: NodeId,
        name: impl Into<String>,
    ) -> Self {
        DcTree {
            nodes,
            servers,
            root,
            name: name.into(),
        }
        .validated()
    }

    fn validated(self) -> Self {
        debug_assert!(self.root.0 < self.nodes.len());
        for (i, n) in self.nodes.iter().enumerate() {
            for c in &n.children {
                debug_assert_eq!(self.nodes[c.0].parent, Some(NodeId(i)));
            }
        }
        self
    }

    /// Topology name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Immutable node access.
    pub fn node(&self, id: NodeId) -> &TreeNode {
        &self.nodes[id.0]
    }

    /// Server info.
    pub fn server(&self, id: ServerId) -> &ServerInfo {
        &self.servers[id.0]
    }

    /// Total physical switch count.
    pub fn switch_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n.kind {
                NodeKind::Switch { switch_count, .. } => switch_count,
                NodeKind::Server { .. } => 0,
            })
            .sum()
    }

    /// Iterates over all servers in left-to-right (DFS) tree order — the
    /// order that preserves partition-tree sibling locality when assigning
    /// groups to servers.
    pub fn servers_in_dfs_order(&self) -> Vec<ServerId> {
        let mut out = Vec::with_capacity(self.servers.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id.0];
            if let NodeKind::Server { server } = n.kind {
                out.push(server);
            }
            // Push children reversed so the leftmost is processed first.
            for &c in n.children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All servers under `node` (in DFS order).
    pub fn servers_under(&self, node: NodeId) -> Vec<ServerId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            let n = &self.nodes[id.0];
            if let NodeKind::Server { server } = n.kind {
                out.push(server);
            }
            for &c in n.children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Healthy (non-failed) servers.
    pub fn healthy_servers(&self) -> Vec<ServerId> {
        (0..self.servers.len())
            .map(ServerId)
            .filter(|s| !self.servers[s.0].failed)
            .collect()
    }

    /// Number of links on the shortest path between two servers — the edge
    /// weight of the capacity graph (Section III-A). Two servers in the same
    /// rack are 2 links apart; same pod 4; cross-pod 6 (fat-tree).
    pub fn hop_distance(&self, a: ServerId, b: ServerId) -> usize {
        if a == b {
            return 0;
        }
        let mut na = self.servers[a.0].node;
        let mut nb = self.servers[b.0].node;
        let mut hops = 0;
        while na != nb {
            let (da, db) = (self.nodes[na.0].depth, self.nodes[nb.0].depth);
            if da >= db {
                // lint:allow(no-panic-in-libs) -- LCA climb: `na != nb` means
                // neither side is the root yet, and every non-root has a parent.
                na = self.nodes[na.0].parent.expect("non-root has parent");
                hops += 1;
            }
            if db > da {
                // lint:allow(no-panic-in-libs) -- LCA climb: `na != nb` means
                // neither side is the root yet, and every non-root has a parent.
                nb = self.nodes[nb.0].parent.expect("non-root has parent");
                hops += 1;
            }
        }
        hops
    }

    /// All internal (switch) nodes, smallest subtrees first (deepest level
    /// first), left-to-right within a level. This is the search order for
    /// "the smallest left-most subtree" of Section IV-A.
    pub fn subtrees_smallest_first(&self) -> Vec<NodeId> {
        let mut internal: Vec<NodeId> = (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| matches!(self.nodes[id.0].kind, NodeKind::Switch { .. }))
            .collect();
        internal.sort_by_key(|id| (usize::MAX - self.nodes[id.0].depth, id.0));
        internal
    }

    /// Residual (unreserved) outbound bandwidth of `node`.
    pub fn residual_mbps(&self, node: NodeId) -> f64 {
        let n = &self.nodes[node.0];
        (n.uplink_mbps - n.reserved_mbps).max(0.0)
    }

    /// Reserves `mbps` on the outbound link(s) of `node`.
    ///
    /// # Errors
    ///
    /// Returns [`InsufficientBandwidth`] without reserving anything if the
    /// residual bandwidth is smaller than `mbps`.
    pub fn reserve_mbps(&mut self, node: NodeId, mbps: f64) -> Result<(), InsufficientBandwidth> {
        let available = self.residual_mbps(node);
        if mbps > available + 1e-9 {
            return Err(InsufficientBandwidth {
                node,
                requested: mbps,
                available,
            });
        }
        self.nodes[node.0].reserved_mbps += mbps;
        Ok(())
    }

    /// Releases a previous reservation (clamped at zero).
    pub fn release_mbps(&mut self, node: NodeId, mbps: f64) {
        let n = &mut self.nodes[node.0];
        n.reserved_mbps = (n.reserved_mbps - mbps).max(0.0);
    }

    /// Clears all bandwidth reservations (start of a new epoch).
    pub fn clear_reservations(&mut self) {
        for n in &mut self.nodes {
            n.reserved_mbps = 0.0;
        }
    }

    // ----- asymmetry: failures & heterogeneity -----------------------------

    /// Degrades the outbound bandwidth of `node` to `factor` of its current
    /// value (link failures make the topology asymmetric, Section IV).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `[0, 1]`.
    pub fn degrade_uplink(&mut self, node: NodeId, factor: f64) {
        assert!((0.0..=1.0).contains(&factor), "factor {factor}");
        let n = &mut self.nodes[node.0];
        if n.uplink_mbps.is_finite() {
            n.uplink_mbps *= factor;
        }
    }

    /// Current outbound bandwidth of `node`, Mbps (infinite at the root).
    pub fn uplink_mbps(&self, node: NodeId) -> f64 {
        self.nodes[node.0].uplink_mbps
    }

    /// Sets the outbound bandwidth of `node` to an absolute value — the
    /// repair counterpart of [`DcTree::degrade_uplink`], which only scales
    /// downward relative to the current (possibly already degraded) value.
    /// The root's infinite uplink is left untouched.
    pub fn set_uplink_mbps(&mut self, node: NodeId, mbps: f64) {
        let n = &mut self.nodes[node.0];
        if n.uplink_mbps.is_finite() {
            n.uplink_mbps = mbps;
        }
    }

    /// The rack-level nodes: switch aggregates whose children are servers.
    /// These are the natural victims of ToR/uplink fault injection.
    pub fn rack_nodes(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .map(NodeId)
            .filter(|id| {
                matches!(self.nodes[id.0].kind, NodeKind::Switch { .. })
                    && self.nodes[id.0]
                        .children
                        .iter()
                        .any(|c| matches!(self.nodes[c.0].kind, NodeKind::Server { .. }))
            })
            .collect()
    }

    /// Marks a server failed: it stops being eligible for placement.
    pub fn fail_server(&mut self, server: ServerId) {
        self.servers[server.0].failed = true;
    }

    /// Restores a failed server.
    pub fn restore_server(&mut self, server: ServerId) {
        self.servers[server.0].failed = false;
    }

    /// Replaces a server's capacity (heterogeneous hardware, Section IV).
    pub fn set_server_resources(&mut self, server: ServerId, resources: Resources) {
        self.servers[server.0].resources = resources;
    }

    /// Mean capacity across healthy servers — the "average capacity of the
    /// heterogeneous servers" the Section IV-A partitioning stop-rule uses.
    pub fn mean_server_resources(&self) -> Resources {
        let healthy = self.healthy_servers();
        if healthy.is_empty() {
            return Resources::zero();
        }
        let total: Resources = healthy.iter().map(|s| self.servers[s.0].resources).sum();
        total.scaled(1.0 / healthy.len() as f64)
    }

    /// Counts the physical switches that must stay powered given per-server
    /// on/off state: a switch aggregate is on iff any server beneath it is
    /// on; the count scales with the fraction of its children subtrees that
    /// are active (an aggregation layer can gate individual member switches).
    pub fn active_switch_count(&self, server_on: &[bool]) -> usize {
        assert_eq!(server_on.len(), self.servers.len());
        let mut active = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if let NodeKind::Switch { switch_count, .. } = n.kind {
                let under = self.servers_under(NodeId(i));
                let on = under.iter().filter(|s| server_on[s.0]).count();
                if on == 0 {
                    continue;
                }
                if n.children.is_empty() {
                    active += switch_count;
                    continue;
                }
                // Member switches scale with the active-child fraction, with
                // at least one member on.
                let active_children = n
                    .children
                    .iter()
                    .filter(|c| self.servers_under(**c).iter().any(|s| server_on[s.0]))
                    .count();
                let frac = active_children as f64 / n.children.len() as f64;
                active += ((switch_count as f64 * frac).ceil() as usize).clamp(1, switch_count);
            }
        }
        active
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{fat_tree, leaf_spine};

    #[test]
    fn hop_distances_in_fat_tree() {
        let t = fat_tree(4, Resources::testbed_server(), 1000.0);
        // k=4: 16 servers, 4 pods × 2 racks × 2 servers.
        assert_eq!(t.server_count(), 16);
        let order = t.servers_in_dfs_order();
        assert_eq!(order.len(), 16);
        // Same rack: 2 hops; same pod: 4; cross-pod: 6.
        assert_eq!(t.hop_distance(order[0], order[0]), 0);
        assert_eq!(t.hop_distance(order[0], order[1]), 2);
        assert_eq!(t.hop_distance(order[0], order[2]), 4);
        assert_eq!(t.hop_distance(order[0], order[15]), 6);
    }

    #[test]
    fn dfs_order_is_dense_and_unique() {
        let t = fat_tree(4, Resources::testbed_server(), 1000.0);
        let mut order = t.servers_in_dfs_order();
        order.sort();
        order.dedup();
        assert_eq!(order.len(), 16);
    }

    #[test]
    fn reservation_accounting() {
        let mut t = leaf_spine(2, 2, 2, Resources::testbed_server(), 1000.0);
        let racks: Vec<NodeId> = t.subtrees_smallest_first();
        let rack = racks[0];
        let cap = t.residual_mbps(rack);
        assert!(cap > 0.0);
        t.reserve_mbps(rack, cap / 2.0).unwrap();
        assert!((t.residual_mbps(rack) - cap / 2.0).abs() < 1e-9);
        let err = t.reserve_mbps(rack, cap).unwrap_err();
        assert_eq!(err.node, rack);
        t.release_mbps(rack, cap / 2.0);
        assert!((t.residual_mbps(rack) - cap).abs() < 1e-9);
        t.reserve_mbps(rack, cap).unwrap();
        t.clear_reservations();
        assert!((t.residual_mbps(rack) - cap).abs() < 1e-9);
    }

    #[test]
    fn smallest_subtrees_come_first() {
        let t = fat_tree(4, Resources::testbed_server(), 1000.0);
        let order = t.subtrees_smallest_first();
        // Depth must be non-increasing.
        for pair in order.windows(2) {
            assert!(t.node(pair[0]).depth >= t.node(pair[1]).depth);
        }
        // The last entry is the root.
        assert_eq!(*order.last().unwrap(), t.root());
    }

    #[test]
    fn failures_shrink_healthy_set() {
        let mut t = leaf_spine(2, 2, 2, Resources::testbed_server(), 1000.0);
        assert_eq!(t.healthy_servers().len(), 4);
        t.fail_server(ServerId(1));
        assert_eq!(t.healthy_servers().len(), 3);
        t.restore_server(ServerId(1));
        assert_eq!(t.healthy_servers().len(), 4);
    }

    #[test]
    fn degrade_uplink_reduces_residual() {
        let mut t = leaf_spine(2, 2, 2, Resources::testbed_server(), 1000.0);
        let rack = t.subtrees_smallest_first()[0];
        let before = t.residual_mbps(rack);
        t.degrade_uplink(rack, 0.5);
        assert!((t.residual_mbps(rack) - before / 2.0).abs() < 1e-9);
    }

    #[test]
    fn mean_resources_over_heterogeneous_servers() {
        let mut t = leaf_spine(2, 2, 2, Resources::new(100.0, 10.0, 100.0), 1000.0);
        t.set_server_resources(ServerId(0), Resources::new(300.0, 30.0, 300.0));
        let mean = t.mean_server_resources();
        assert!((mean.cpu - 150.0).abs() < 1e-9);
        t.fail_server(ServerId(0));
        let mean2 = t.mean_server_resources();
        assert!((mean2.cpu - 100.0).abs() < 1e-9);
    }

    #[test]
    fn active_switch_count_scales_with_active_racks() {
        let t = fat_tree(4, Resources::testbed_server(), 1000.0);
        let all_on = vec![true; 16];
        let full = t.active_switch_count(&all_on);
        assert_eq!(full, t.switch_count(), "everything on = all switches");
        // Only the first rack's two servers on.
        let order = t.servers_in_dfs_order();
        let mut two_on = vec![false; 16];
        two_on[order[0].0] = true;
        two_on[order[1].0] = true;
        let few = t.active_switch_count(&two_on);
        assert!(few < full, "{few} !< {full}");
        // At minimum: 1 edge + some agg + some core.
        assert!(few >= 3, "{few}");
        let none = t.active_switch_count(&[false; 16]);
        assert_eq!(none, 0);
    }

    #[test]
    fn root_has_infinite_uplink() {
        let t = fat_tree(4, Resources::testbed_server(), 1000.0);
        assert!(t.node(t.root()).uplink_mbps.is_infinite());
        assert!(t.residual_mbps(t.root()).is_infinite());
    }

    #[test]
    fn uplink_degrade_and_absolute_repair_roundtrip() {
        let mut t = fat_tree(4, Resources::testbed_server(), 1000.0);
        let rack = t.rack_nodes()[0];
        let before = t.uplink_mbps(rack);
        t.degrade_uplink(rack, 0.10);
        assert!((t.uplink_mbps(rack) - before * 0.10).abs() < 1e-9);
        // Repeated degradation compounds; absolute repair undoes all of it.
        t.degrade_uplink(rack, 0.10);
        assert!((t.uplink_mbps(rack) - before * 0.01).abs() < 1e-9);
        t.set_uplink_mbps(rack, before);
        assert_eq!(t.uplink_mbps(rack), before);
        // The root's infinite uplink stays infinite.
        t.set_uplink_mbps(t.root(), 42.0);
        assert!(t.uplink_mbps(t.root()).is_infinite());
    }

    #[test]
    fn rack_nodes_cover_every_server_exactly_once() {
        for t in [
            fat_tree(4, Resources::testbed_server(), 1000.0),
            leaf_spine(3, 4, 2, Resources::testbed_server(), 1000.0),
        ] {
            let racks = t.rack_nodes();
            assert!(!racks.is_empty());
            let mut covered: Vec<ServerId> =
                racks.iter().flat_map(|r| t.servers_under(*r)).collect();
            covered.sort_unstable();
            covered.dedup();
            assert_eq!(covered.len(), t.server_count());
            for r in racks {
                assert!(matches!(t.node(r).kind, NodeKind::Switch { .. }));
            }
        }
    }
}
