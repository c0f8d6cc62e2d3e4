//! The Goldilocks placement policy on symmetric topologies (Section III).
//!
//! 1. Build the container graph (vertex = demand, edge = flow count,
//!    negative edges between replicas).
//! 2. Recursively bisect it with min-cut until every group fits one server
//!    capped at the Peak-Energy-Efficiency utilization (Eq. 1–3).
//! 3. Assign leaf groups, in the partition tree's left-to-right order, to
//!    servers in the topology's left-to-right (DFS) order: sibling groups —
//!    the chattiest pairs — land in the same rack, their parents in the same
//!    pod, and so on. Unused servers stay off.

use goldilocks_partition::{PartitionTree, VertexWeight};
use goldilocks_placement::{PlaceError, Placement, Placer};
use goldilocks_topology::{DcTree, Resources, ServerId};
use goldilocks_workload::{ContainerGraphCache, Workload};

use crate::config::GoldilocksConfig;

/// The Goldilocks scheduler (symmetric-topology algorithm of Section III-B).
#[derive(Clone, Debug, Default)]
pub struct Goldilocks {
    /// Algorithm configuration.
    pub config: GoldilocksConfig,
    /// Epoch-reusable container-graph cache: warm epochs refresh vertex
    /// weights in place or apply CSR deltas instead of rebuilding (byte-
    /// identical either way, so placements are unaffected).
    graph_cache: ContainerGraphCache,
}

/// Diagnostics from one placement run — the partition tree behind the
/// assignment (Fig. 7 renders these groups).
#[derive(Clone, Debug)]
pub struct ProvisionDetails {
    /// The recursive-bisection tree over containers.
    pub tree: PartitionTree,
    /// Server chosen for each leaf, parallel to `tree.leaves()`.
    pub group_servers: Vec<ServerId>,
    /// Per-container group index (leaf order).
    pub group_of_container: Vec<usize>,
}

impl Goldilocks {
    /// Creates the policy with the paper's configuration (PEE 70 %).
    pub fn new() -> Self {
        Goldilocks::default()
    }

    /// Creates the policy with a custom configuration.
    pub fn with_config(config: GoldilocksConfig) -> Self {
        Goldilocks {
            config,
            graph_cache: ContainerGraphCache::new(),
        }
    }

    /// Runs placement and returns the partition tree alongside the
    /// assignment.
    ///
    /// # Errors
    ///
    /// See [`Placer::place`].
    pub fn place_with_details(
        &mut self,
        workload: &Workload,
        tree: &DcTree,
    ) -> Result<(Placement, ProvisionDetails), PlaceError> {
        let mut details = ProvisionDetails {
            tree: PartitionTree {
                vertices: Vec::new(),
                weight: VertexWeight::zeros(3),
                children: Vec::new(),
                depth: 0,
            },
            group_servers: Vec::new(),
            group_of_container: Vec::new(),
        };
        let placement = self.assign(workload, tree, Some(&mut details))?;
        Ok((placement, details))
    }

    /// Partitions the container graph into groups and assigns them to
    /// servers. `details`, when given, receives the partition tree, the
    /// group servers and each container's group; [`Placer::place`] passes
    /// `None` and builds none of them.
    fn assign(
        &mut self,
        workload: &Workload,
        tree: &DcTree,
        mut details: Option<&mut ProvisionDetails>,
    ) -> Result<Placement, PlaceError> {
        let healthy = tree.healthy_servers();
        if healthy.is_empty() {
            return Err(PlaceError::Infeasible {
                reason: "no healthy servers".into(),
            });
        }
        if workload.is_empty() {
            return Ok(Placement::unplaced(0));
        }

        let cap_weight = group_cap(&self.config, tree, &healthy)?;

        let graph = self
            .graph_cache
            .build(workload, self.config.anti_affinity_weight)
            .map_err(|e| PlaceError::Infeasible {
                reason: format!("container graph: {e}"),
            })?;

        let groups =
            crate::grouping::partition_into_groups(graph, &cap_weight, &self.config.bisect)?;

        // Healthy servers in topology DFS order.
        let dfs: Vec<ServerId> = tree
            .servers_in_dfs_order()
            .into_iter()
            .filter(|s| !tree.server(*s).failed)
            .collect();

        if groups.len() > dfs.len() {
            return Err(PlaceError::Infeasible {
                reason: format!(
                    "{} container groups need {} servers but only {} are healthy",
                    groups.len(),
                    groups.len(),
                    dfs.len()
                ),
            });
        }

        let mut placement = Placement::unplaced(workload.len());
        if let Some(d) = details.as_deref_mut() {
            d.group_servers = Vec::with_capacity(groups.len());
            d.group_of_container = vec![usize::MAX; workload.len()];
            d.tree.children = Vec::with_capacity(groups.len());
        }
        let mut weight = VertexWeight::zeros(graph.dims());
        let mut next_server = 0usize;
        for (g, group) in groups.iter().enumerate() {
            graph.subset_weight_into(group, &mut weight);
            // Find the next DFS server whose (individual) capped capacity
            // hosts this group — with homogeneous servers this is always the
            // immediate next one.
            let mut chosen = None;
            while next_server < dfs.len() {
                let s = dfs[next_server];
                next_server += 1;
                let scap = self.config.cap_resources(&tree.server(s).resources);
                if weight.fits_within_slice(&scap.as_array()) {
                    chosen = Some(s);
                    break;
                }
            }
            let s = chosen.ok_or_else(|| PlaceError::Unplaceable {
                container: group.first().copied().unwrap_or(0),
                reason: "ran out of servers while assigning container groups".into(),
            })?;
            for &v in group {
                placement.assignment[v] = Some(s);
            }
            if let Some(d) = details.as_deref_mut() {
                for &v in group {
                    d.group_of_container[v] = g;
                }
                d.group_servers.push(s);
                d.tree.children.push(PartitionTree {
                    vertices: group.clone(),
                    weight: weight.clone(),
                    children: Vec::new(),
                    depth: 1,
                });
            }
        }

        if let Some(d) = details {
            d.tree.vertices = (0..workload.len()).collect();
            d.tree.weight = graph.total_vertex_weight();
        }
        Ok(placement)
    }
}

impl Placer for Goldilocks {
    fn name(&self) -> &str {
        "Goldilocks"
    }

    fn place(&mut self, workload: &Workload, tree: &DcTree) -> Result<Placement, PlaceError> {
        self.assign(workload, tree, None)
    }
}

/// The weight cap every group must fit: the smallest healthy server in each
/// dimension, capped by [`GoldilocksConfig::cap_resources`]. Using the
/// smallest healthy capacity guarantees a group fits any server it is
/// assigned to.
pub(crate) fn group_cap(
    config: &GoldilocksConfig,
    tree: &DcTree,
    healthy: &[ServerId],
) -> Result<VertexWeight, PlaceError> {
    let min_cap = healthy
        .iter()
        .map(|s| tree.server(*s).resources)
        .reduce(|a, r| {
            Resources::new(
                a.cpu.min(r.cpu),
                a.memory_gb.min(r.memory_gb),
                a.network_mbps.min(r.network_mbps),
            )
        })
        .ok_or_else(|| PlaceError::Infeasible {
            reason: "no healthy servers".to_string(),
        })?;
    Ok(VertexWeight::new(
        config.cap_resources(&min_cap).as_array().to_vec(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_topology::builders::{single_rack, testbed_16};
    use goldilocks_workload::generators::twitter_caching;

    #[test]
    fn respects_pee_cap() {
        let tree = testbed_16();
        let w = twitter_caching(64, 1);
        let mut g = Goldilocks::new();
        let p = g.place(&w, &tree).unwrap();
        assert!(p.is_complete());
        for u in p.server_cpu_utilizations(&w, &tree) {
            assert!(u <= 0.70 + 1e-9, "server CPU above PEE: {u}");
        }
        for u in p.server_utilizations(&w, &tree) {
            assert!(u <= 0.90 + 1e-9, "server above safety cap: {u}");
        }
    }

    #[test]
    fn uses_fewer_servers_than_epvm_when_load_is_low() {
        use goldilocks_placement::EPvm;
        let tree = testbed_16();
        let w = twitter_caching(32, 2);
        let gold = Goldilocks::new().place(&w, &tree).unwrap();
        let epvm = EPvm::new().place(&w, &tree).unwrap();
        assert!(gold.active_server_count() < epvm.active_server_count());
    }

    #[test]
    fn chatty_pairs_stay_close() {
        // Two chatty cliques of 4 containers each; servers hold 4 each.
        let tree = single_rack(4, Resources::new(200.0, 32.0, 500.0), 500.0);
        let mut w = Workload::new();
        for _ in 0..8 {
            w.add_container("c", Resources::new(33.0, 4.0, 24.0), None);
        }
        for base in [0usize, 4] {
            for i in 0..4 {
                for j in i + 1..4 {
                    w.add_flow(
                        goldilocks_workload::ContainerId(base + i),
                        goldilocks_workload::ContainerId(base + j),
                        100,
                        1.0,
                    );
                }
            }
        }
        let mut g = Goldilocks::new();
        let (p, details) = g.place_with_details(&w, &tree).unwrap();
        assert!(p.is_complete());
        // Each clique must land on a single server.
        for base in [0usize, 4] {
            let s = p.assignment[base].unwrap();
            for i in 1..4 {
                assert_eq!(p.assignment[base + i], Some(s), "clique split");
            }
        }
        assert_eq!(details.tree.leaf_count(), 2);
    }

    #[test]
    fn replicas_split_across_servers() {
        let tree = single_rack(4, Resources::new(200.0, 32.0, 500.0), 500.0);
        let mut w = Workload::new();
        // Two replicas + 6 fillers; replicas are chatty with the fillers but
        // anti-affine with each other.
        for i in 0..8 {
            let rs = if i < 2 { Some(7) } else { None };
            w.add_container("c", Resources::new(40.0, 4.0, 24.0), rs);
        }
        for i in 2..8 {
            w.add_flow(
                goldilocks_workload::ContainerId(0),
                goldilocks_workload::ContainerId(i),
                10,
                1.0,
            );
            w.add_flow(
                goldilocks_workload::ContainerId(1),
                goldilocks_workload::ContainerId(i),
                10,
                1.0,
            );
        }
        let mut g = Goldilocks::new();
        let p = g.place(&w, &tree).unwrap();
        assert_ne!(
            p.assignment[0], p.assignment[1],
            "replicas must land on different fault domains"
        );
    }

    #[test]
    fn details_group_mapping_is_consistent() {
        let tree = testbed_16();
        let w = twitter_caching(48, 3);
        let mut g = Goldilocks::new();
        let (p, d) = g.place_with_details(&w, &tree).unwrap();
        for (c, &grp) in d.group_of_container.iter().enumerate() {
            assert!(grp < d.group_servers.len());
            assert_eq!(p.assignment[c], Some(d.group_servers[grp]));
        }
    }

    /// `place` builds no details but places exactly as
    /// `place_with_details`, whose leaves weigh their groups and cover
    /// every container once.
    #[test]
    fn place_matches_place_with_details() {
        let tree = testbed_16();
        for (n, seed) in [(24, 1), (48, 3), (96, 7)] {
            let w = twitter_caching(n, seed);
            let p = Goldilocks::new().place(&w, &tree).unwrap();
            let (q, d) = Goldilocks::new().place_with_details(&w, &tree).unwrap();
            assert_eq!(p, q, "n = {n}");
            assert_eq!(d.tree.vertices, (0..w.len()).collect::<Vec<_>>());
            let graph = w.container_graph(0).unwrap();
            let mut covered = 0;
            for (g, leaf) in d.tree.children.iter().enumerate() {
                assert_eq!(leaf.weight, graph.subset_weight(&leaf.vertices));
                for &v in &leaf.vertices {
                    assert_eq!(d.group_of_container[v], g);
                }
                covered += leaf.vertices.len();
            }
            assert_eq!(covered, w.len());
        }
    }

    #[test]
    fn empty_workload_is_fine() {
        let tree = testbed_16();
        let w = Workload::new();
        let mut g = Goldilocks::new();
        let p = g.place(&w, &tree).unwrap();
        assert_eq!(p.assignment.len(), 0);
    }

    #[test]
    fn too_much_load_errors() {
        let tree = single_rack(2, Resources::new(100.0, 10.0, 100.0), 100.0);
        let mut w = Workload::new();
        for _ in 0..8 {
            w.add_container("c", Resources::new(40.0, 1.0, 1.0), None);
        }
        // 320 % CPU demand vs 2 servers × 70 % = 140 %.
        let err = Goldilocks::new().place(&w, &tree).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::Infeasible { .. } | PlaceError::Unplaceable { .. }
        ));
    }

    #[test]
    fn lower_pee_uses_more_servers() {
        let tree = testbed_16();
        let w = twitter_caching(96, 4);
        let p70 = Goldilocks::new().place(&w, &tree).unwrap();
        let p50 = Goldilocks::with_config(GoldilocksConfig::default().with_pee_target(0.5))
            .place(&w, &tree)
            .unwrap();
        assert!(p50.active_server_count() >= p70.active_server_count());
    }
}
