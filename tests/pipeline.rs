//! Cross-crate pipeline tests: the full workflow from workload generation
//! through partitioning, placement, migration planning and metering.

use goldilocks::cluster::{migration_plan, MigrationModel, PowerGate};
use goldilocks::core::{capacity_graph, Goldilocks, GoldilocksAsym, GoldilocksConfig};
use goldilocks::partition::{
    multilevel_bisect_in, partition_kway_in, recursive_bisect_in, BisectConfig, Graph,
    PartitionWorkspace, VertexWeight,
};
use goldilocks::placement::{EPvm, Placer};
use goldilocks::sim::{meter, PowerConfig};
use goldilocks::topology::builders::{fat_tree, testbed_16};
use goldilocks::topology::{Resources, ServerId};
use goldilocks::workload::generators::{azure_mix, twitter_caching};
use goldilocks::workload::mstrace::{search_trace, snapshot, SearchTraceConfig};

#[test]
fn end_to_end_epoch_with_migration() {
    let tree = testbed_16();

    // Epoch 1: place at low load.
    let mut w1 = twitter_caching(80, 5);
    w1.scale_load(0.5);
    let mut gold = Goldilocks::new();
    let p1 = gold.place(&w1, &tree).expect("epoch 1 feasible");

    // Epoch 2: load doubles; placement changes; migrations are priced.
    let mut w2 = twitter_caching(80, 5);
    w2.scale_load(1.0);
    let p2 = gold.place(&w2, &tree).expect("epoch 2 feasible");
    let plan = migration_plan(&p1, &p2);
    let cost = MigrationModel::default().plan_cost(&plan, &w2);
    assert_eq!(cost.count, plan.len());

    // Power gate: servers without containers get turned off.
    let mut gate = PowerGate::all_on(tree.server_count());
    let active = p2.active_servers();
    let desired: Vec<bool> = (0..tree.server_count())
        .map(|s| active.contains(&ServerId(s)))
        .collect();
    gate.step(&desired, 60);
    assert_eq!(gate.ready_count(), active.len());

    // And metering sees only the active servers.
    let sample = meter(&p2, &w2, &tree, &PowerConfig::testbed());
    assert_eq!(sample.active_servers, active.len());
}

#[test]
fn capacity_graph_partition_recovers_racks() {
    // Partitioning the capacity graph with max-cut-like structure: with
    // hop-distance edge weights, a k-way min-cut over the *complement*
    // behaviour groups far-apart servers separately; the paper notes
    // substructures fall out of the recursion. Here we verify the capacity
    // graph is well-formed over a fat tree and k-way partitioning yields
    // balanced server groups.
    let tree = fat_tree(4, Resources::testbed_server(), 1000.0);
    let (graph, mapping) = capacity_graph(&tree).expect("capacity graph");
    assert_eq!(graph.vertex_count(), 16);
    let labels = partition_kway_in(
        &graph,
        4,
        &BisectConfig::default(),
        &mut PartitionWorkspace::new(),
    )
    .expect("4 parts");
    let mut sizes = vec![0usize; 4];
    for &l in &labels {
        sizes[l] += 1;
    }
    assert_eq!(sizes, vec![4, 4, 4, 4]);
    assert_eq!(mapping.len(), 16);
}

#[test]
fn asymmetric_placement_handles_failures_and_heterogeneity() {
    let mut tree = testbed_16();
    // Two failed servers, two downgraded ones, one degraded rack uplink.
    tree.fail_server(ServerId(2));
    tree.fail_server(ServerId(9));
    tree.set_server_resources(ServerId(0), Resources::new(1600.0, 32.0, 500.0));
    tree.set_server_resources(ServerId(1), Resources::new(1600.0, 32.0, 500.0));
    let rack = tree.subtrees_smallest_first()[1];
    tree.degrade_uplink(rack, 0.25);

    let w = twitter_caching(64, 11);
    let mut asym = GoldilocksAsym::new();
    let p = asym
        .place(&w, &tree)
        .expect("asymmetric placement feasible");
    assert!(p.is_complete());
    // Failed servers host nothing.
    for s in p.assignment.iter().flatten() {
        assert!(s.0 != 2 && s.0 != 9);
    }
    // Downgraded servers respect their own (smaller) PEE cap.
    let utils = p.server_cpu_utilizations(&w, &tree);
    assert!(utils[0] <= 0.70 * (1600.0 / 1600.0) + 1e-9);
}

#[test]
fn search_trace_places_on_fat_tree() {
    // A scaled-down Fig. 13 pipeline: synthetic search trace onto a fat
    // tree, with both Goldilocks variants succeeding.
    let tree = fat_tree(4, Resources::new(4800.0, 768.0, 10_000.0), 10_000.0);
    let mut w = search_trace(&SearchTraceConfig {
        vertices: 80,
        ..SearchTraceConfig::default()
    });
    // Keep CPU below the 70 % cluster cap.
    let total = w.total_demand().cpu;
    let cap = tree.server_count() as f64 * 4800.0 * 0.5;
    w.scale_load(cap / total);
    let p = Goldilocks::new().place(&w, &tree).expect("symmetric");
    assert!(p.is_complete());
    let p2 = GoldilocksAsym::new().place(&w, &tree).expect("asymmetric");
    assert!(p2.is_complete());
}

#[test]
fn replica_anti_affinity_survives_the_full_pipeline() {
    let tree = testbed_16();
    let mut w = azure_mix(80, 13);
    // Calibrate to fit the testbed: CPU to 40 % of the cluster, memory and
    // network to testbed-plausible footprints (as the Fig. 10 scenario does).
    let total = w.total_demand().cpu;
    let cpu_scale = 16.0 * 3200.0 * 0.4 / total;
    for c in &mut w.containers {
        c.demand.cpu *= cpu_scale;
        c.demand.memory_gb = (c.demand.memory_gb * 0.1).max(0.2);
        c.demand.network_mbps *= 0.3;
    }
    let cfg = GoldilocksConfig::paper();
    let mut gold = Goldilocks::with_config(cfg);
    let (p, _) = gold.place_with_details(&w, &tree).expect("feasible");
    // Every 2-member replica set must land on two distinct servers.
    use std::collections::BTreeMap;
    let mut sets: BTreeMap<usize, Vec<ServerId>> = BTreeMap::new();
    for c in &w.containers {
        if let Some(rs) = c.replica_set {
            sets.entry(rs)
                .or_default()
                .push(p.assignment[c.id.0].expect("placed"));
        }
    }
    let mut split = 0;
    let mut together = 0;
    for servers in sets.values() {
        if servers.len() == 2 {
            if servers[0] == servers[1] {
                together += 1;
            } else {
                split += 1;
            }
        }
    }
    assert!(
        split >= together * 9,
        "anti-affinity too weak: {split} split vs {together} co-located"
    );
}

#[test]
fn epvm_and_goldilocks_agree_on_completeness() {
    // Sanity: both extreme policies place the same workload completely.
    let tree = testbed_16();
    let mut w = twitter_caching(96, 17);
    w.scale_load(0.8);
    let pe = EPvm::new().place(&w, &tree).expect("epvm");
    let pg = Goldilocks::new().place(&w, &tree).expect("goldilocks");
    assert!(pe.is_complete() && pg.is_complete());
    assert!(pg.active_server_count() <= pe.active_server_count());
}

/// The container graph of the first `vertices` search-trace containers.
fn trace_graph(vertices: usize) -> Graph {
    let w = search_trace(&SearchTraceConfig {
        vertices,
        ..SearchTraceConfig::default()
    });
    snapshot(&w, vertices)
        .container_graph(0)
        .expect("trace graph")
}

/// Every partitioner entry point on the hub-and-spoke search-trace graph:
/// a bisection, k-way at the paper-scale ratio of ~25 vertices per part,
/// recursive bisection to ~40 groups, and a half-graph extraction.
#[test]
fn partitioner_entry_points_on_search_trace_graphs() {
    let cfg = BisectConfig::default();
    let g = trace_graph(1000);
    let bisection = multilevel_bisect_in(&g, 0.5, &cfg, &mut PartitionWorkspace::new());
    assert_eq!(bisection.cut, g.cut(&bisection.side));
    let zeros = bisection.side.iter().filter(|&&s| s == 0).count();
    assert!(zeros > 0 && zeros < g.vertex_count());

    let g = trace_graph(2000);
    let n = g.vertex_count();
    let k = n / 25;
    let labels = partition_kway_in(&g, k, &cfg, &mut PartitionWorkspace::new()).expect("k-way");
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    assert!(sizes.iter().all(|&s| s > 0), "empty part in {sizes:?}");

    let total = g.total_vertex_weight();
    let cap = VertexWeight::new(total.0.iter().map(|t| t / 40.0 * 1.2).collect::<Vec<_>>());
    let tree = recursive_bisect_in(
        &g,
        |w| w.fits_within(&cap),
        &cfg,
        &mut PartitionWorkspace::new(),
    )
    .expect("every container fits the cap");
    let leaves = tree.leaves();
    assert!((34..=64).contains(&leaves.len()), "{} groups", leaves.len());
    let mut covered = vec![false; n];
    for leaf in &leaves {
        assert!(leaf.weight.fits_within(&cap));
        for &v in &leaf.vertices {
            assert!(!covered[v], "vertex {v} in two groups");
            covered[v] = true;
        }
    }
    assert!(covered.iter().all(|&c| c));

    let half: Vec<usize> = (0..n).step_by(2).collect();
    let sub = g.subgraph_in(&half, &mut PartitionWorkspace::new());
    assert_eq!(sub.vertex_count(), half.len());
    for (new, &old) in half.iter().enumerate() {
        let inside: Vec<_> = g
            .neighbors(old)
            .filter(|&(u, _)| u % 2 == 0)
            .map(|(u, w)| (u / 2, w))
            .collect();
        assert_eq!(sub.neighbors(new).collect::<Vec<_>>(), inside);
    }
}
