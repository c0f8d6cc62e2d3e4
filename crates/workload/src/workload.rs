//! Containers, flows and the container graph (Section III-A).

use goldilocks_partition::{EdgeWeight, Graph, PartitionError};
use goldilocks_topology::Resources;

/// Identifier of a container within a [`Workload`] (dense).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub usize);

/// One container: a task hosted in Docker, with its resource demand.
#[derive(Clone, Debug, PartialEq)]
pub struct ContainerSpec {
    /// Dense id within the workload.
    pub id: ContainerId,
    /// Application name (profile it was derived from).
    pub app: String,
    /// Resource demand at the current load level.
    pub demand: Resources,
    /// Replica-set label: containers sharing a label are replicas of the
    /// same service and must land in different fault domains (Section IV-C).
    pub replica_set: Option<usize>,
}

/// A communication relation between two containers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Flow {
    /// One endpoint.
    pub a: ContainerId,
    /// The other endpoint.
    pub b: ContainerId,
    /// Number of distinct flows (the container-graph edge weight).
    pub flow_count: i64,
    /// Traffic volume of the relation, in Mbps (used for Virtual-Cluster
    /// bandwidth terms and TCT locality accounting).
    pub mbps: f64,
}

/// A set of containers plus their communication pattern.
#[derive(Clone, Debug, Default)]
pub struct Workload {
    /// Containers, indexed by [`ContainerId`].
    pub containers: Vec<ContainerSpec>,
    /// Pairwise communication.
    pub flows: Vec<Flow>,
}

impl Workload {
    /// An empty workload.
    pub fn new() -> Self {
        Workload::default()
    }

    /// Adds a container and returns its id.
    pub fn add_container(
        &mut self,
        app: impl Into<String>,
        demand: Resources,
        replica_set: Option<usize>,
    ) -> ContainerId {
        let id = ContainerId(self.containers.len());
        self.containers.push(ContainerSpec {
            id,
            app: app.into(),
            demand,
            replica_set,
        });
        id
    }

    /// Adds a flow between two containers.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or the endpoints coincide.
    pub fn add_flow(&mut self, a: ContainerId, b: ContainerId, flow_count: i64, mbps: f64) {
        assert!(a.0 < self.containers.len() && b.0 < self.containers.len());
        assert_ne!(a, b, "self-flows are not meaningful");
        self.flows.push(Flow {
            a,
            b,
            flow_count,
            mbps,
        });
    }

    /// Number of containers.
    pub fn len(&self) -> usize {
        self.containers.len()
    }

    /// True when the workload has no containers.
    pub fn is_empty(&self) -> bool {
        self.containers.is_empty()
    }

    /// Aggregate demand of all containers.
    pub fn total_demand(&self) -> Resources {
        self.containers.iter().map(|c| c.demand).sum()
    }

    /// Scales the CPU and network demand of every container by `factor`
    /// (load-proportional resources); memory is left unchanged, matching the
    /// paper's observation that e.g. search memory stays flat at 12 GB.
    pub fn scale_load(&mut self, factor: f64) {
        for c in &mut self.containers {
            c.demand.cpu *= factor;
            c.demand.network_mbps *= factor;
        }
        for f in &mut self.flows {
            f.mbps *= factor;
        }
    }

    /// Builds the container graph (Section III-A): vertex weight =
    /// ⟨CPU, memory, network⟩ demand; edge weight = distinct flow count;
    /// plus `anti_affinity_weight` negative edges between same-replica-set
    /// pairs (Section IV-C fault domains).
    ///
    /// # Errors
    ///
    /// Propagates graph construction errors (cannot happen for a workload
    /// assembled through [`add_container`]/[`add_flow`]).
    ///
    /// [`add_container`]: Workload::add_container
    /// [`add_flow`]: Workload::add_flow
    pub fn container_graph(&self, anti_affinity_weight: i64) -> Result<Graph, PartitionError> {
        let mut edges = Vec::with_capacity(self.flows.len());
        self.collect_graph_edges(anti_affinity_weight, &mut edges);
        let mut vwgt = Vec::with_capacity(self.containers.len() * 3);
        for c in &self.containers {
            vwgt.extend_from_slice(&c.demand.as_array());
        }
        Graph::from_edges(self.containers.len(), 3, vwgt, &mut edges)
    }

    /// Collects the container-graph edge list into `edges` (cleared first):
    /// one entry per flow, plus the pairwise anti-affinity chain between
    /// replicas of the same set (a clique would add O(r²) edges; a chain
    /// suffices for min-cut to split them). Chains link each replica to the
    /// previous member of its set in ascending container-id order — the same
    /// pairs `windows(2)` over the sorted member list yields.
    ///
    /// The list is raw (unsorted, unmerged); [`Graph::from_edges`] owns
    /// normalization. [`ContainerGraphCache`] shares this enumeration for
    /// its delta builds.
    ///
    /// [`ContainerGraphCache`]: crate::ContainerGraphCache
    pub(crate) fn collect_graph_edges(
        &self,
        anti_affinity_weight: i64,
        edges: &mut Vec<(u32, u32, EdgeWeight)>,
    ) {
        edges.clear();
        for f in &self.flows {
            edges.push((f.a.0 as u32, f.b.0 as u32, f.flow_count));
        }
        if anti_affinity_weight != 0 {
            let w = -anti_affinity_weight.abs();
            use std::collections::BTreeMap;
            let mut last_member: BTreeMap<usize, u32> = BTreeMap::new();
            for c in &self.containers {
                if let Some(rs) = c.replica_set {
                    if let Some(prev) = last_member.insert(rs, c.id.0 as u32) {
                        edges.push((prev, c.id.0 as u32, w));
                    }
                }
            }
        }
    }

    /// A copy with container identities randomly permuted (flows remapped).
    ///
    /// Generators emit containers group by group, which would hand
    /// sequential first-fit placers (RC-Informed's buckets) accidental
    /// locality; real arrival order has no such structure. Scenario builders
    /// shuffle before use.
    pub fn shuffled(&self, seed: u64) -> Workload {
        let mut rng = goldilocks_rng::SplitMix64::seed_from_u64(seed);
        let n = self.containers.len();
        let mut perm: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut perm);
        // perm[new] = old
        let mut out = Workload::new();
        for &old in &perm {
            let c = &self.containers[old];
            out.add_container(c.app.clone(), c.demand, c.replica_set);
        }
        let mut old_to_new = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            old_to_new[old] = new;
        }
        for f in &self.flows {
            out.add_flow(
                ContainerId(old_to_new[f.a.0]),
                ContainerId(old_to_new[f.b.0]),
                f.flow_count,
                f.mbps,
            );
        }
        out
    }

    /// The sub-workload of the first `n` containers (flows whose endpoints
    /// both survive are kept, ids unchanged). Used by the Azure experiment,
    /// where the container count varies per epoch while identities of the
    /// surviving containers stay stable.
    pub fn prefix(&self, n: usize) -> Workload {
        let n = n.min(self.containers.len());
        Workload {
            containers: self.containers[..n].to_vec(),
            flows: self
                .flows
                .iter()
                .filter(|f| f.a.0 < n && f.b.0 < n)
                .copied()
                .collect(),
        }
    }

    /// Total traffic in Mbps of every container across all its flows, by
    /// container id — the `B_i` bandwidth requirements of the Virtual
    /// Cluster abstraction (Section IV-A). One pass over `flows`: each entry
    /// starts at `-0.0` and adds in flow order, as `Iterator::sum` over a
    /// per-container filter would, and a self-flow counts once.
    pub fn container_bandwidths(&self) -> Vec<f64> {
        let mut bandwidth = vec![-0.0; self.containers.len()];
        for f in &self.flows {
            bandwidth[f.a.0] += f.mbps;
            if f.b != f.a {
                bandwidth[f.b.0] += f.mbps;
            }
        }
        bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Workload {
        let mut w = Workload::new();
        let a = w.add_container("memcached", Resources::new(33.0, 4.0, 24.0), None);
        let b = w.add_container("memcached", Resources::new(33.0, 4.0, 24.0), Some(1));
        let c = w.add_container("frontend", Resources::new(20.0, 1.0, 10.0), Some(1));
        w.add_flow(a, b, 100, 5.0);
        w.add_flow(b, c, 50, 2.5);
        w
    }

    #[test]
    fn totals_accumulate() {
        let w = sample();
        let t = w.total_demand();
        assert!((t.cpu - 86.0).abs() < 1e-9);
        assert!((t.memory_gb - 9.0).abs() < 1e-9);
        assert_eq!(w.len(), 3);
        assert!(!w.is_empty());
    }

    #[test]
    fn scale_load_touches_cpu_net_only() {
        let mut w = sample();
        w.scale_load(2.0);
        assert!((w.containers[0].demand.cpu - 66.0).abs() < 1e-9);
        assert!((w.containers[0].demand.memory_gb - 4.0).abs() < 1e-9);
        assert!((w.containers[0].demand.network_mbps - 48.0).abs() < 1e-9);
        assert!((w.flows[0].mbps - 10.0).abs() < 1e-9);
    }

    #[test]
    fn container_graph_structure() {
        let w = sample();
        let g = w.container_graph(0).unwrap();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.vertex_weight(0).0, vec![33.0, 4.0, 24.0]);
    }

    #[test]
    fn anti_affinity_adds_negative_edges() {
        let w = sample();
        let g = w.container_graph(1000).unwrap();
        // Replica set {1, 2} gains one negative edge; (1,2) already had a
        // positive 50-flow edge, so the merged weight is 50 - 1000.
        let weight: Vec<_> = g.neighbors(1).filter(|(u, _)| *u == 2).collect();
        assert_eq!(weight, vec![(2, -950)]);
    }

    #[test]
    fn bandwidth_queries() {
        let mut w = sample();
        let bw = w.container_bandwidths();
        assert!((bw[1] - 7.5).abs() < 1e-9);
        assert!((bw[0] - 5.0).abs() < 1e-9);
        // A flowless container, a self-flow and a repeated pair.
        w.add_container("idle", Resources::new(1.0, 1.0, 1.0), None);
        let (a, b) = (ContainerId(0), ContainerId(1));
        w.flows.push(Flow {
            a,
            b: a,
            flow_count: 1,
            mbps: 0.1,
        });
        w.flows.push(Flow {
            a: b,
            b: a,
            flow_count: 1,
            mbps: 0.2,
        });
        let bw = w.container_bandwidths();
        let expected = (0..w.len()).map(|c| filtered_bandwidth(&w, ContainerId(c)));
        assert_eq!(bits(bw.iter().copied()), bits(expected));
        assert_eq!(bw[3].to_bits(), (-0.0f64).to_bits(), "flowless container");
    }

    /// One container's bandwidth by a filter over every flow: the
    /// reference `container_bandwidths` must equal bit for bit.
    fn filtered_bandwidth(w: &Workload, c: ContainerId) -> f64 {
        w.flows
            .iter()
            .filter(|f| f.a == c || f.b == c)
            .map(|f| f.mbps)
            .sum()
    }

    fn bits(v: impl IntoIterator<Item = f64>) -> Vec<u64> {
        v.into_iter().map(f64::to_bits).collect()
    }

    proptest! {
        /// One pass over the flows equals the per-container filter bit for
        /// bit: flowless containers keep the filter's `-0.0`, a self-flow
        /// counts once, and repeated pairs add in flow order.
        #[test]
        fn container_bandwidths_match_per_container_filter(
            (n, flows) in (1usize..12).prop_flat_map(|n| (
                Just(n),
                proptest::collection::vec((0..n, 0..n, 0u8..4, 0.0f64..100.0), 0..n * 3),
            )),
        ) {
            let mut w = Workload::new();
            for _ in 0..n {
                w.add_container("c", Resources::new(1.0, 1.0, 1.0), None);
            }
            // `add_flow` refuses self-flows, so push them as a loaded trace
            // would; a zero-rate kind covers `0.0` contributions.
            for (a, b, kind, mbps) in flows {
                let mbps = if kind == 0 { 0.0 } else { mbps };
                let (a, b) = (ContainerId(a), ContainerId(b));
                for _ in 0..1 + usize::from(kind == 3) {
                    w.flows.push(Flow { a, b, flow_count: 1, mbps });
                }
            }
            let expected = (0..n).map(|c| filtered_bandwidth(&w, ContainerId(c)));
            prop_assert_eq!(bits(w.container_bandwidths()), bits(expected));
        }
    }

    #[test]
    fn prefix_keeps_inner_flows() {
        let w = sample();
        let p = w.prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.flows.len(), 1, "only the (0,1) flow survives");
        assert_eq!(p.flows[0].a, ContainerId(0));
        // Prefix larger than the workload is the whole workload.
        assert_eq!(w.prefix(99).len(), 3);
    }

    #[test]
    fn shuffled_preserves_structure() {
        let w = sample();
        let s = w.shuffled(5);
        assert_eq!(s.len(), w.len());
        assert_eq!(s.flows.len(), w.flows.len());
        // Total demand unchanged.
        assert!((s.total_demand().cpu - w.total_demand().cpu).abs() < 1e-9);
        // Per-app population unchanged.
        let count = |w: &Workload, app: &str| w.containers.iter().filter(|c| c.app == app).count();
        assert_eq!(count(&s, "memcached"), count(&w, "memcached"));
        // Flow endpoints track the permuted apps: total bandwidth conserved.
        let bw = |w: &Workload| w.flows.iter().map(|f| f.mbps).sum::<f64>();
        assert!((bw(&s) - bw(&w)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "self-flows")]
    fn self_flow_rejected() {
        let mut w = sample();
        w.add_flow(ContainerId(0), ContainerId(0), 1, 1.0);
    }
}
