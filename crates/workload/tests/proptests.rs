//! Property-based tests for workload construction and trace generators.

use goldilocks_workload::generators::{azure_mix, twitter_caching};
use goldilocks_workload::traces::{correlated_loads, pearson, wikipedia_rps};
use goldilocks_workload::Workload;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The container graph mirrors the workload exactly: one vertex per
    /// container with its demand; every flow becomes an edge.
    #[test]
    fn container_graph_mirrors_workload(n in 8usize..120, seed in 0u64..500) {
        let w = twitter_caching(n, seed);
        let g = w.container_graph(0).expect("graph");
        prop_assert_eq!(g.vertex_count(), w.len());
        for c in &w.containers {
            let vw = g.vertex_weight(c.id.0);
            prop_assert!((vw.component(0) - c.demand.cpu).abs() < 1e-9);
            prop_assert!((vw.component(1) - c.demand.memory_gb).abs() < 1e-9);
            prop_assert!((vw.component(2) - c.demand.network_mbps).abs() < 1e-9);
        }
        // Edge weights sum to the flow-count sum (parallel flows merge).
        let flow_sum: i64 = w.flows.iter().map(|f| f.flow_count).sum();
        prop_assert_eq!(g.total_positive_edge_weight(), flow_sum);
    }

    /// Shuffling is a pure relabeling: totals, flow counts and per-app
    /// populations are preserved; prefix() after shuffle stays consistent.
    #[test]
    fn shuffle_is_a_relabeling(n in 10usize..150, seed in 0u64..500) {
        let w = azure_mix(n, seed);
        let s = w.shuffled(seed ^ 99);
        prop_assert_eq!(s.len(), w.len());
        prop_assert_eq!(s.flows.len(), w.flows.len());
        let d1 = w.total_demand();
        let d2 = s.total_demand();
        prop_assert!((d1.cpu - d2.cpu).abs() < 1e-6);
        prop_assert!((d1.memory_gb - d2.memory_gb).abs() < 1e-6);
        // Prefix keeps ids dense and flows internal.
        let p = s.prefix(s.len() / 2);
        for f in &p.flows {
            prop_assert!(f.a.0 < p.len() && f.b.0 < p.len());
        }
        for (i, c) in p.containers.iter().enumerate() {
            prop_assert_eq!(c.id.0, i);
        }
    }

    /// scale_load is linear and leaves memory alone.
    #[test]
    fn scale_load_linearity(n in 8usize..60, factor in 0.1f64..3.0) {
        let mut w = twitter_caching(n, 1);
        let before = w.total_demand();
        w.scale_load(factor);
        let after = w.total_demand();
        prop_assert!((after.cpu - before.cpu * factor).abs() < 1e-6);
        prop_assert!((after.network_mbps - before.network_mbps * factor).abs() < 1e-6);
        prop_assert!((after.memory_gb - before.memory_gb).abs() < 1e-9);
    }

    /// The Wikipedia trace always stays inside the requested band.
    #[test]
    fn wiki_trace_bounds(epochs in 2usize..300, lo in 1.0f64..1000.0, span in 1.0f64..10_000.0) {
        let t = wikipedia_rps(epochs, lo, lo + span);
        prop_assert_eq!(t.len(), epochs);
        for v in &t.values {
            prop_assert!(*v >= lo - 1e-9 && *v <= lo + span + 1e-9);
        }
    }

    /// Correlated loads honour the correlation direction: higher target
    /// correlation never yields lower average pairwise Pearson.
    #[test]
    fn correlation_is_ordered(seed in 0u64..200) {
        let avg_corr = |rho: f64| {
            let traces = correlated_loads(8, 300, rho, seed);
            let mut sum = 0.0;
            let mut n = 0;
            for i in 0..traces.len() {
                for j in i + 1..traces.len() {
                    sum += pearson(&traces[i].values, &traces[j].values);
                    n += 1;
                }
            }
            sum / n as f64
        };
        let low = avg_corr(0.1);
        let high = avg_corr(0.9);
        prop_assert!(high > low + 0.2, "rho=0.9 gave {high}, rho=0.1 gave {low}");
    }

    /// Anti-affinity edges only ever connect same-replica-set containers
    /// and are strictly negative after merging.
    #[test]
    fn anti_affinity_edges_are_targeted(n in 20usize..100, seed in 0u64..200) {
        let w = azure_mix(n, seed);
        let g = w.container_graph(1_000_000).expect("graph");
        for v in 0..g.vertex_count() {
            for (u, weight) in g.neighbors(v) {
                if weight < 0 {
                    let (a, b) = (&w.containers[v], &w.containers[u]);
                    prop_assert!(
                        a.replica_set.is_some() && a.replica_set == b.replica_set,
                        "negative edge between non-replicas {v} and {u}"
                    );
                }
            }
        }
    }

    /// Bandwidth accounting: the sum of per-container bandwidths is twice
    /// the total flow traffic (each flow counted at both endpoints).
    #[test]
    fn bandwidth_double_counting_identity(n in 8usize..80, seed in 0u64..200) {
        let w = twitter_caching(n, seed);
        let per_container: f64 = w.container_bandwidths().iter().sum();
        let total_flows: f64 = w.flows.iter().map(|f| f.mbps).sum();
        prop_assert!((per_container - 2.0 * total_flows).abs() < 1e-6);
    }
}

/// Non-proptest sanity: an empty workload behaves.
#[test]
fn empty_workload_graph() {
    let w = Workload::new();
    let g = w.container_graph(100).expect("empty graph is fine");
    assert_eq!(g.vertex_count(), 0);
    assert_eq!(w.total_demand(), goldilocks_topology::Resources::zero());
}
