//! Virtual-Cluster placement on asymmetric topologies (Section IV).
//!
//! Each container group from the recursive bisection becomes an
//! Oktopus-style *Virtual Cluster*: its members hang off one virtual switch,
//! member `i` needing bandwidth `B_i` (its total flow traffic). Groups are
//! placed, in order, onto the smallest left-most subtree whose servers have
//! capacity **and** whose outbound link(s) can reserve the Eq. (4)/(5)
//! bandwidth:
//!
//! ```text
//! R = min( Σ_{q∈a} B_q ,  Σ_{r∈b} B_r + Σ_{s∈outside} B_s )
//! ```
//!
//! where component `a` is the part of the group inside the subtree,
//! component `b` the part that spills outside, and `outside` covers the
//! already-placed containers beyond this subtree plus (conservatively) every
//! still-unplaced group. When no subtree can host a whole group, the group
//! splits: the largest bandwidth-feasible component `a` is committed and the
//! remainder re-queued.
//!
//! One `place` call reads every member bandwidth in one pass over the flows
//! ([`Workload::container_bandwidths`]) and every subtree's server list once.
//! Trying a group on a subtree then costs the subtree's size, not the
//! fleet's: the trial fill first-fits the members over a copy of only that
//! subtree's load rows, and the "placed outside" term sums the per-server
//! placed bandwidth over only that subtree's servers. A whole group and a
//! split's component `a` commit through one step. The tests keep a
//! reference loop that clones the whole load tracker per trial and filters
//! every server for the outside term: placements and link reservations must
//! match it bit for bit.

use std::collections::VecDeque;

use goldilocks_partition::VertexWeight;
use goldilocks_placement::{PlaceError, Placement, Placer};
use goldilocks_topology::{DcTree, NodeId, Resources, ServerId};
use goldilocks_workload::{ContainerGraphCache, Workload};

use crate::config::GoldilocksConfig;

/// Members placed by a trial fill: position into `members`, and server.
type Fit = Vec<(usize, ServerId)>;

/// A container group abstracted as a 2-level Virtual Cluster.
#[derive(Clone, Debug)]
struct VirtualCluster {
    /// Container indices of the members.
    members: Vec<usize>,
    /// Bandwidth requirement `B_i` of each member, parallel to `members`.
    bandwidth: Vec<f64>,
}

impl VirtualCluster {
    /// Total bandwidth of the members in `fit` (positions into `members`),
    /// summed in `fit` order.
    fn bandwidth_of(&self, fit: &[(usize, ServerId)]) -> f64 {
        fit.iter().map(|&(p, _)| self.bandwidth[p]).sum()
    }

    /// Total bandwidth of all members.
    fn total_bandwidth(&self) -> f64 {
        self.bandwidth.iter().sum()
    }
}

/// The Goldilocks scheduler for asymmetric topologies and heterogeneous
/// servers (Section IV). It does not reduce to the Section III behaviour on
/// a symmetric, failure-free topology: rather than giving each group a
/// server of its own, it fills each group's members first-fit, in server
/// order under the PEE cap, into servers that earlier groups already share.
/// On a healthy k = 12 fleet that packs tighter than [`crate::Goldilocks`]:
/// over the four epochs of `largescale(12, 4, 42)` it uses 139 / 191 / 224 /
/// 159 active servers against its 150 / 217 / 266 / 176.
#[derive(Clone, Debug, Default)]
pub struct GoldilocksAsym {
    /// Algorithm configuration.
    pub config: GoldilocksConfig,
    /// Epoch-reusable container-graph cache (byte-identical to fresh builds).
    graph_cache: ContainerGraphCache,
}

impl GoldilocksAsym {
    /// Creates the policy with the paper's configuration.
    pub fn new() -> Self {
        GoldilocksAsym::default()
    }

    /// Creates the policy with a custom configuration.
    pub fn with_config(config: GoldilocksConfig) -> Self {
        GoldilocksAsym {
            config,
            graph_cache: ContainerGraphCache::new(),
        }
    }

    /// Builds the Virtual Clusters via recursive bisection against the
    /// *average* healthy-server capacity (Section IV-A stop rule).
    fn build_clusters(
        &mut self,
        workload: &Workload,
        tree: &DcTree,
    ) -> Result<Vec<VirtualCluster>, PlaceError> {
        let mean = self.config.cap_resources(&tree.mean_server_resources());
        let cap_weight = VertexWeight::new(mean.as_array().to_vec());
        let graph = self
            .graph_cache
            .build(workload, self.config.anti_affinity_weight)
            .map_err(|e| PlaceError::Infeasible {
                reason: format!("container graph: {e}"),
            })?;
        let groups =
            crate::grouping::partition_into_groups(graph, &cap_weight, &self.config.bisect)?;
        let bandwidth = workload.container_bandwidths();
        Ok(groups
            .into_iter()
            .map(|members| VirtualCluster {
                bandwidth: members.iter().map(|&c| bandwidth[c]).collect(),
                members,
            })
            .collect())
    }

    /// Places `clusters` in order, splitting where no subtree hosts a whole
    /// group. Also returns the private copy of `tree` whose links carry the
    /// Eq. (4)/(5) reservations.
    fn place_clusters(
        &self,
        clusters: Vec<VirtualCluster>,
        workload: &Workload,
        tree: &DcTree,
    ) -> Result<(Placement, DcTree), PlaceError> {
        // Bandwidth reservations are tracked on a private copy of the tree.
        let mut net = tree.clone();
        net.clear_reservations();
        let subtrees: Vec<Subtree> = tree
            .subtrees_smallest_first()
            .into_iter()
            .map(|node| {
                let servers = tree.servers_under(node);
                let mut by_id: Vec<usize> = servers.iter().map(|s| s.0).collect();
                by_id.sort_unstable();
                let fill = servers
                    .into_iter()
                    .filter(|s| !tree.server(*s).failed)
                    .collect();
                Subtree { node, fill, by_id }
            })
            .collect();
        let cap: Vec<Resources> = (0..tree.server_count())
            .map(|s| {
                self.config
                    .cap_resources(&tree.server(ServerId(s)).resources)
            })
            .collect();
        let mut used = vec![Resources::zero(); tree.server_count()];
        let mut placement = Placement::unplaced(workload.len());

        // Conservative Eq. (5) term: bandwidth of every unplaced group.
        let mut pending: VecDeque<VirtualCluster> = clusters.into();
        let mut unplaced_bw: f64 = pending.iter().map(VirtualCluster::total_bandwidth).sum();
        // Bandwidth of already-placed containers, per server and in total.
        let mut placed_bw_total = 0.0f64;
        let mut placed_bw_by_server: Vec<f64> = vec![0.0; tree.server_count()];
        let (mut rows, mut fit) = (Vec::new(), Vec::new());

        let mut spill_guard = 0usize;
        let spill_limit = workload.len() * 4 + 16;

        while let Some(vc) = pending.pop_front() {
            spill_guard += 1;
            if spill_guard > spill_limit {
                return Err(PlaceError::Infeasible {
                    reason: "virtual-cluster placement did not converge".into(),
                });
            }
            let total = vc.total_bandwidth();
            unplaced_bw -= total;

            // Host the entire group on the smallest left-most subtree that
            // can; failing that, keep the largest feasible component a.
            let mut whole: Option<(NodeId, f64)> = None;
            let mut best_partial: Option<(NodeId, f64, Fit)> = None;
            for st in &subtrees {
                trial_fill(&vc, workload, &st.fill, &used, &cap, &mut rows, &mut fit);
                if fit.is_empty() {
                    continue;
                }
                let inside: f64 = st.by_id.iter().map(|&s| placed_bw_by_server[s]).sum();
                let outside = placed_bw_total - inside;
                let residual = net.residual_mbps(st.node) + 1e-9;
                if fit.len() == vc.members.len() {
                    let required = vc.bandwidth_of(&fit).min(outside + unplaced_bw);
                    if required <= residual {
                        whole = Some((st.node, required));
                        break;
                    }
                } else if best_partial
                    .as_ref()
                    .is_none_or(|(_, _, prev)| fit.len() > prev.len())
                {
                    // Trim component a until the Eq. (4) reservation fits the
                    // residual bandwidth.
                    let mut part = fit.clone();
                    while !part.is_empty() {
                        let a = vc.bandwidth_of(&part);
                        if a.min((total - a) + (outside + unplaced_bw)) <= residual {
                            break;
                        }
                        part.pop();
                    }
                    if !part.is_empty() {
                        best_partial = Some((st.node, outside, part));
                    }
                }
            }

            // Commit the whole group, or else split: commit the best
            // component a and re-queue component b.
            let (node, required) = match whole {
                Some(commit) => commit,
                None => {
                    let (node, outside, part) =
                        best_partial.ok_or_else(|| PlaceError::Unplaceable {
                            container: vc.members.first().copied().unwrap_or(0),
                            reason: "no subtree has capacity or bandwidth for this group".into(),
                        })?;
                    fit = part;
                    let a = vc.bandwidth_of(&fit);
                    (node, a.min(((total - a) + outside) + unplaced_bw))
                }
            };
            net.reserve_mbps(node, required)
                .map_err(|e| PlaceError::Infeasible {
                    reason: format!("bandwidth reservation: {e}"),
                })?;
            let mut placed = vec![false; vc.members.len()];
            for &(pos, s) in &fit {
                let c = vc.members[pos];
                used[s.0] += workload.containers[c].demand;
                placement.assignment[c] = Some(s);
                placed_bw_by_server[s.0] += vc.bandwidth[pos];
                placed_bw_total += vc.bandwidth[pos];
                placed[pos] = true;
            }
            if fit.len() < vc.members.len() {
                let (members, bandwidth) = vc
                    .members
                    .iter()
                    .zip(&vc.bandwidth)
                    .zip(&placed)
                    .filter(|(_, &p)| !p)
                    .map(|((&c, &b), _)| (c, b))
                    .unzip();
                let rest = VirtualCluster { members, bandwidth };
                unplaced_bw += rest.total_bandwidth();
                pending.push_back(rest);
            }
        }

        Ok((placement, net))
    }
}

/// A subtree of the placement walk, read once per `place_clusters` call.
struct Subtree {
    node: NodeId,
    /// The trial fill's servers: the healthy ones, in `servers_under` order.
    fill: Vec<ServerId>,
    /// Every server under `node`, ascending by id: the order the
    /// placed-outside term sums in.
    by_id: Vec<usize>,
}

/// First-fits `vc`'s members, in order, onto `servers` under their PEE
/// `cap`s, against `rows`, a copy of only those servers' `used` load. Leaves
/// in `fit` the position (into `vc.members`) and server of every member that
/// fits.
fn trial_fill(
    vc: &VirtualCluster,
    workload: &Workload,
    servers: &[ServerId],
    used: &[Resources],
    cap: &[Resources],
    rows: &mut Vec<Resources>,
    fit: &mut Fit,
) {
    rows.clear();
    rows.extend(servers.iter().map(|s| used[s.0]));
    fit.clear();
    for (pos, &c) in vc.members.iter().enumerate() {
        let demand = workload.containers[c].demand;
        let free = servers
            .iter()
            .zip(rows.iter_mut())
            .find(|(s, row)| (**row + demand).fits_within(&cap[s.0]));
        if let Some((&s, row)) = free {
            *row += demand;
            fit.push((pos, s));
        }
    }
}

impl Placer for GoldilocksAsym {
    fn name(&self) -> &str {
        "Goldilocks-Asym"
    }

    fn place(&mut self, workload: &Workload, tree: &DcTree) -> Result<Placement, PlaceError> {
        if tree.healthy_servers().is_empty() {
            return Err(PlaceError::Infeasible {
                reason: "no healthy servers".into(),
            });
        }
        if workload.is_empty() {
            return Ok(Placement::unplaced(0));
        }

        let clusters = self.build_clusters(workload, tree)?;
        self.place_clusters(clusters, workload, tree)
            .map(|(placement, _)| placement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_placement::LoadTracker;
    use goldilocks_rng::SplitMix64;
    use goldilocks_topology::builders::{fat_tree, single_rack, testbed_16};
    use goldilocks_workload::generators::twitter_caching;
    use goldilocks_workload::mstrace::{search_trace, SearchTraceConfig};
    use goldilocks_workload::traces::wikipedia_rps;
    use goldilocks_workload::ContainerId;
    use proptest::prelude::*;

    /// The reference placement loop `place_clusters` must match bit for
    /// bit: each trial fill clones the whole load tracker, and the
    /// placed-outside term filters every server through a set of the
    /// subtree's servers.
    fn place_clusters_oracle(
        config: &GoldilocksConfig,
        clusters: Vec<VirtualCluster>,
        workload: &Workload,
        tree: &DcTree,
    ) -> Result<(Placement, DcTree), PlaceError> {
        fn bandwidth_of(vc: &VirtualCluster, positions: &[usize]) -> f64 {
            positions.iter().map(|&p| vc.bandwidth[p]).sum()
        }
        fn max_component_a(
            vc: &VirtualCluster,
            workload: &Workload,
            tree: &DcTree,
            tracker: &LoadTracker<'_>,
            subtree: NodeId,
            config: &GoldilocksConfig,
        ) -> Vec<(usize, ServerId)> {
            let servers: Vec<ServerId> = tree
                .servers_under(subtree)
                .into_iter()
                .filter(|s| !tree.server(*s).failed)
                .collect();
            let mut local = tracker.clone();
            let mut placed = Vec::new();
            for (pos, &c) in vc.members.iter().enumerate() {
                let demand = workload.containers[c].demand;
                for &s in &servers {
                    let cap = config.cap_resources(&tree.server(s).resources);
                    if local.fits_capped(s, &demand, &cap) {
                        local.add(s, demand);
                        placed.push((pos, s));
                        break;
                    }
                }
            }
            placed
        }

        let mut net = tree.clone();
        net.clear_reservations();
        let mut tracker = LoadTracker::new(tree);
        let mut placement = Placement::unplaced(workload.len());
        let mut pending: VecDeque<VirtualCluster> = clusters.into_iter().collect();
        let mut unplaced_bw: f64 = pending.iter().map(VirtualCluster::total_bandwidth).sum();
        let mut placed_bw_total = 0.0f64;
        let mut placed_bw_by_server: Vec<f64> = vec![0.0; tree.server_count()];
        let subtrees = net.subtrees_smallest_first();
        let mut spill_guard = 0usize;
        let spill_limit = workload.len() * 4 + 16;

        while let Some(vc) = pending.pop_front() {
            spill_guard += 1;
            if spill_guard > spill_limit {
                return Err(PlaceError::Infeasible {
                    reason: "virtual-cluster placement did not converge".into(),
                });
            }
            unplaced_bw -= vc.total_bandwidth();
            let mut committed = false;
            let mut best_partial: Option<(NodeId, Vec<(usize, ServerId)>)> = None;
            for &st in &subtrees {
                let fit = max_component_a(&vc, workload, tree, &tracker, st, config);
                if fit.is_empty() {
                    continue;
                }
                let inside: std::collections::BTreeSet<usize> =
                    net.servers_under(st).into_iter().map(|s| s.0).collect();
                let placed_outside_bw = placed_bw_total
                    - placed_bw_by_server
                        .iter()
                        .enumerate()
                        .filter(|(s, _)| inside.contains(s))
                        .map(|(_, b)| *b)
                        .sum::<f64>();
                let inter_term = placed_outside_bw + unplaced_bw;
                if fit.len() == vc.members.len() {
                    let a_positions: Vec<usize> = fit.iter().map(|(p, _)| *p).collect();
                    let required = bandwidth_of(&vc, &a_positions).min(inter_term);
                    if required <= net.residual_mbps(st) + 1e-9 {
                        net.reserve_mbps(st, required)
                            .map_err(|e| PlaceError::Infeasible {
                                reason: format!("bandwidth reservation: {e}"),
                            })?;
                        for &(pos, s) in &fit {
                            let c = vc.members[pos];
                            tracker.add(s, workload.containers[c].demand);
                            placement.assignment[c] = Some(s);
                            placed_bw_by_server[s.0] += vc.bandwidth[pos];
                            placed_bw_total += vc.bandwidth[pos];
                        }
                        committed = true;
                        break;
                    }
                } else if best_partial
                    .as_ref()
                    .is_none_or(|(_, prev)| fit.len() > prev.len())
                {
                    let mut fit = fit;
                    loop {
                        if fit.is_empty() {
                            break;
                        }
                        let a_positions: Vec<usize> = fit.iter().map(|(p, _)| *p).collect();
                        let b_bw = vc.total_bandwidth() - bandwidth_of(&vc, &a_positions);
                        let required = bandwidth_of(&vc, &a_positions).min(b_bw + inter_term);
                        if required <= net.residual_mbps(st) + 1e-9 {
                            break;
                        }
                        fit.pop();
                    }
                    if !fit.is_empty() {
                        best_partial = Some((st, fit));
                    }
                }
            }
            if committed {
                continue;
            }

            let (st, fit) = best_partial.ok_or_else(|| PlaceError::Unplaceable {
                container: vc.members.first().copied().unwrap_or(0),
                reason: "no subtree has capacity or bandwidth for this group".into(),
            })?;
            let a_positions: Vec<usize> = fit.iter().map(|(p, _)| *p).collect();
            let inside: std::collections::BTreeSet<usize> =
                net.servers_under(st).into_iter().map(|s| s.0).collect();
            let placed_outside_bw = placed_bw_total
                - placed_bw_by_server
                    .iter()
                    .enumerate()
                    .filter(|(s, _)| inside.contains(s))
                    .map(|(_, b)| *b)
                    .sum::<f64>();
            let b_bw = vc.total_bandwidth() - bandwidth_of(&vc, &a_positions);
            let required =
                bandwidth_of(&vc, &a_positions).min(b_bw + placed_outside_bw + unplaced_bw);
            net.reserve_mbps(st, required)
                .map_err(|e| PlaceError::Infeasible {
                    reason: format!("bandwidth reservation: {e}"),
                })?;
            let placed_set: std::collections::BTreeSet<usize> =
                a_positions.iter().copied().collect();
            for &(pos, s) in &fit {
                let c = vc.members[pos];
                tracker.add(s, workload.containers[c].demand);
                placement.assignment[c] = Some(s);
                placed_bw_by_server[s.0] += vc.bandwidth[pos];
                placed_bw_total += vc.bandwidth[pos];
            }
            let rest = VirtualCluster {
                members: vc
                    .members
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !placed_set.contains(p))
                    .map(|(_, c)| *c)
                    .collect(),
                bandwidth: vc
                    .bandwidth
                    .iter()
                    .enumerate()
                    .filter(|(p, _)| !placed_set.contains(p))
                    .map(|(_, b)| *b)
                    .collect(),
            };
            unplaced_bw += rest.total_bandwidth();
            pending.push_back(rest);
        }
        Ok((placement, net))
    }

    /// A placement and the bits of every link's reservation.
    type Outcome = Result<(Placement, Vec<u64>), PlaceError>;

    /// Places `workload` with `place_clusters` and with the oracle, on the
    /// same groups. The oracle's member bandwidths come from a filter over
    /// every flow per container, as `build_clusters` once computed them.
    fn run_both(config: &GoldilocksConfig, workload: &Workload, tree: &DcTree) -> [Outcome; 2] {
        let mut policy = GoldilocksAsym::with_config(config.clone());
        let clusters = match policy.build_clusters(workload, tree) {
            Ok(clusters) => clusters,
            Err(e) => return [Err(e.clone()), Err(e)],
        };
        let filtered = clusters
            .iter()
            .map(|vc| VirtualCluster {
                members: vc.members.clone(),
                bandwidth: vc
                    .members
                    .iter()
                    .map(|&c| {
                        let c = ContainerId(c);
                        workload
                            .flows
                            .iter()
                            .filter(|f| f.a == c || f.b == c)
                            .map(|f| f.mbps)
                            .sum()
                    })
                    .collect(),
            })
            .collect();
        let bits = |(placement, net): (Placement, DcTree)| {
            let reserved = (0..net.node_count())
                .map(|i| net.node(NodeId(i)).reserved_mbps.to_bits())
                .collect();
            (placement, reserved)
        };
        [
            policy.place_clusters(clusters, workload, tree).map(bits),
            place_clusters_oracle(config, filtered, workload, tree).map(bits),
        ]
    }

    /// Fails about `fail` of the servers, degrades every non-root subtree's
    /// uplink with chance `degrade` to a random fraction, and halves about
    /// `halve` of the servers, all drawn from `seed`.
    fn injure(tree: &mut DcTree, seed: u64, fail: f64, degrade: f64, halve: f64) {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for s in (0..tree.server_count()).map(ServerId) {
            if rng.chance(fail) {
                tree.fail_server(s);
            }
            if rng.chance(halve) {
                let r = tree.server(s).resources;
                tree.set_server_resources(s, r.scaled(0.5));
            }
        }
        let root = tree.root();
        for node in tree.subtrees_smallest_first() {
            if node != root && rng.chance(degrade) {
                let factor = rng.f64();
                tree.degrade_uplink(node, factor);
            }
        }
    }

    proptest! {
        /// The one-pass loop places every container exactly where the
        /// oracle does and reserves the same bits on every link, or fails
        /// with the same error: fat trees k = 4 / 6 and single racks, with
        /// failed servers, degraded uplinks and halved servers, over
        /// workloads with flows, without flows and with random repeated
        /// pairs, at loads up to past capacity. `place` returns the same
        /// placement or error.
        #[test]
        fn place_matches_oracle(
            shape in 0u8..3,
            kind in 0u8..3,
            n in 4usize..90,
            load in 0.2f64..3.0,
            pee in 0.5f64..1.0,
            (fail, degrade, halve) in (0.0f64..0.4, 0.0f64..0.6, 0.0f64..0.4),
            seed in any::<u64>(),
        ) {
            let server = Resources::new(400.0, 64.0, 4000.0);
            let mut tree = match shape {
                0 => fat_tree(4, server, 4000.0),
                1 => fat_tree(6, server, 4000.0),
                _ => single_rack(2 + (seed % 10) as usize, server, 4000.0),
            };
            injure(&mut tree, seed, fail, degrade, halve);
            prop_assume!(!tree.healthy_servers().is_empty());
            let mut w = twitter_caching(n, seed);
            match kind {
                0 => {}
                1 => w.flows.clear(),
                _ => {
                    w.flows.clear();
                    let mut rng = SplitMix64::seed_from_u64(seed ^ 0xF10);
                    for _ in 0..n * 2 {
                        let a = rng.range(0..n);
                        let b = (a + 1 + rng.range(0..n - 1)) % n;
                        let mbps = rng.range_f64(0.0..400.0);
                        w.add_flow(ContainerId(a), ContainerId(b), 1 + rng.range(0..50) as i64, mbps);
                    }
                }
            }
            w.scale_load(load);
            let config = GoldilocksConfig::default().with_pee_target(pee);
            let [got, oracle] = run_both(&config, &w, &tree);
            prop_assert_eq!(&got, &oracle);
            let placed = GoldilocksAsym::with_config(config).place(&w, &tree);
            prop_assert_eq!(placed, got.map(|(placement, _)| placement));
        }
    }

    /// Epoch 0 of the Fig. 13 scenario at k = 8, built from the same parts
    /// and seed as `goldilocks_sim::scenarios::largescale(8, 2, 42)`.
    fn largescale_k8_epoch0() -> (DcTree, Workload) {
        let server = Resources::new(4800.0, 768.0, 10_000.0);
        let tree = fat_tree(8, server, 10_000.0);
        let mut w = search_trace(&SearchTraceConfig {
            vertices: tree.server_count() * 9,
            seed: 42,
            ..SearchTraceConfig::default()
        });
        let shape = wikipedia_rps(2, 0.55, 1.0);
        let mean_frac = shape.values.iter().sum::<f64>() / shape.values.len() as f64;
        let total_cpu = tree.server_count() as f64 * server.cpu;
        let base_cpu = w.total_demand().cpu;
        let scale = (0.28 * total_cpu / (mean_frac * base_cpu)).min(0.60 * total_cpu / base_cpu);
        for c in &mut w.containers {
            c.demand.cpu *= scale;
        }
        w.scale_load(shape.values[0]);
        (tree, w)
    }

    #[test]
    fn fig13_k8_epoch0_matches_oracle_healthy_and_faulted() {
        let (mut tree, w) = largescale_k8_epoch0();
        let config = GoldilocksConfig::default();
        for faulted in [false, true] {
            if faulted {
                injure(&mut tree, 42, 0.05, 0.0, 0.0);
                let subtrees = tree.subtrees_smallest_first();
                for i in [3, 17, 35] {
                    tree.degrade_uplink(subtrees[i], 0.2);
                }
            }
            let [got, oracle] = run_both(&config, &w, &tree);
            assert!(got.as_ref().unwrap().0.is_complete());
            assert_eq!(got, oracle, "faulted: {faulted}");
        }
    }

    #[test]
    fn symmetric_case_places_everything() {
        let tree = testbed_16();
        let w = twitter_caching(64, 5);
        let mut g = GoldilocksAsym::new();
        let p = g.place(&w, &tree).unwrap();
        assert!(p.is_complete());
        for u in p.server_cpu_utilizations(&w, &tree) {
            assert!(u <= 0.70 + 1e-9, "PEE violated: {u}");
        }
    }

    #[test]
    fn heterogeneous_servers_still_place() {
        let mut tree = testbed_16();
        // Halve the capacity of four servers (legacy equipment).
        for s in 0..4 {
            tree.set_server_resources(ServerId(s), Resources::new(1600.0, 32.0, 500.0));
        }
        let w = twitter_caching(64, 6);
        let mut g = GoldilocksAsym::new();
        let p = g.place(&w, &tree).unwrap();
        assert!(p.is_complete());
        // No server, big or small, exceeds its own CPU PEE cap.
        for (s, u) in p.server_cpu_utilizations(&w, &tree).iter().enumerate() {
            assert!(*u <= 0.70 + 1e-9, "server {s} at {u}");
        }
    }

    #[test]
    fn failed_servers_avoided() {
        let mut tree = testbed_16();
        for s in 0..8 {
            tree.fail_server(ServerId(s));
        }
        let w = twitter_caching(32, 7);
        let mut g = GoldilocksAsym::new();
        let p = g.place(&w, &tree).unwrap();
        assert!(p.is_complete());
        assert!(p.assignment.iter().flatten().all(|s| s.0 >= 8));
    }

    #[test]
    fn degraded_uplink_forces_split_or_elsewhere() {
        // A fat-tree where the first rack's uplink is nearly dead: a chatty
        // group whose traffic exceeds the degraded uplink must not be placed
        // entirely behind it *with* external traffic pending.
        let mut tree = fat_tree(4, Resources::new(400.0, 64.0, 4000.0), 4000.0);
        let first_rack = tree.subtrees_smallest_first()[0];
        tree.degrade_uplink(first_rack, 0.001); // 8 Mbps left
        let w = twitter_caching(40, 8);
        let mut g = GoldilocksAsym::new();
        let p = g.place(&w, &tree).unwrap();
        assert!(p.is_complete());
    }

    #[test]
    fn groups_prefer_small_subtrees() {
        let tree = fat_tree(4, Resources::new(400.0, 64.0, 4000.0), 4000.0);
        // One tight clique that fits a single server: it must land on one.
        let mut w = Workload::new();
        for _ in 0..4 {
            w.add_container("c", Resources::new(50.0, 4.0, 20.0), None);
        }
        for i in 0..4usize {
            for j in i + 1..4 {
                w.add_flow(
                    goldilocks_workload::ContainerId(i),
                    goldilocks_workload::ContainerId(j),
                    50,
                    2.0,
                );
            }
        }
        let mut g = GoldilocksAsym::new();
        let p = g.place(&w, &tree).unwrap();
        let servers: std::collections::BTreeSet<_> = p.assignment.iter().flatten().collect();
        assert_eq!(servers.len(), 1, "clique should occupy one server");
    }

    #[test]
    fn empty_workload_ok() {
        let tree = testbed_16();
        let mut g = GoldilocksAsym::new();
        let p = g.place(&Workload::new(), &tree).unwrap();
        assert_eq!(p.assignment.len(), 0);
    }

    #[test]
    fn overload_is_an_error() {
        let tree = goldilocks_topology::builders::single_rack(
            2,
            Resources::new(100.0, 10.0, 100.0),
            100.0,
        );
        let mut w = Workload::new();
        for _ in 0..8 {
            w.add_container("c", Resources::new(40.0, 1.0, 1.0), None);
        }
        let err = GoldilocksAsym::new().place(&w, &tree).unwrap_err();
        assert!(matches!(
            err,
            PlaceError::Infeasible { .. } | PlaceError::Unplaceable { .. }
        ));
        let [got, oracle] = run_both(&GoldilocksConfig::default(), &w, &tree);
        assert_eq!(got, Err(err));
        assert_eq!(got, oracle);
    }
}
