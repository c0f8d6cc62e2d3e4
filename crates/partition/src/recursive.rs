//! Recursive bipartitioning (Section III-B of the paper).
//!
//! The container graph is bisected recursively until every leaf group's
//! aggregate resource demand satisfies a caller-supplied `fits` predicate
//! (Eq. 2: the group fits one server, possibly capped at the Peak Energy
//! Efficiency utilization). The result is a [`PartitionTree`] whose leaves,
//! read left to right, preserve sibling locality: groups with a common parent
//! were split last and therefore communicate the most, so assigning adjacent
//! leaves to adjacent servers keeps chatty groups in the same rack/pod.

use std::borrow::Cow;

use crate::bisect::{bisect_with_seed, split_indices, BisectConfig};
use crate::error::PartitionError;
use crate::graph::{Graph, VertexId, VertexWeight};
use crate::workspace::PartitionWorkspace;

/// A node in the recursive-bisection tree.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionTree {
    /// Vertex ids (in the original graph) covered by this node.
    pub vertices: Vec<VertexId>,
    /// Aggregate weight of `vertices`.
    pub weight: VertexWeight,
    /// Children; empty for leaves. At most 2 entries.
    pub children: Vec<PartitionTree>,
    /// Depth in the tree (root = 0).
    pub depth: usize,
}

impl PartitionTree {
    /// True if this node is a leaf (a final container group).
    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// The leaves in left-to-right (locality-preserving) order.
    pub fn leaves(&self) -> Vec<&PartitionTree> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves<'a>(&'a self, out: &mut Vec<&'a PartitionTree>) {
        if self.is_leaf() {
            out.push(self);
        } else {
            for c in &self.children {
                c.collect_leaves(out);
            }
        }
    }

    /// Number of leaves (container groups).
    pub fn leaf_count(&self) -> usize {
        if self.is_leaf() {
            1
        } else {
            self.children.iter().map(PartitionTree::leaf_count).sum()
        }
    }

    /// Flattens the tree into a per-vertex group id following leaf order.
    ///
    /// Returns a vector indexed by vertex id with values in
    /// `0..self.leaf_count()`. Vertices not covered by the tree keep
    /// `usize::MAX`.
    pub fn group_assignment(&self, vertex_count: usize) -> Vec<usize> {
        let mut assign = vec![usize::MAX; vertex_count];
        for (g, leaf) in self.leaves().iter().enumerate() {
            for &v in &leaf.vertices {
                assign[v] = g;
            }
        }
        assign
    }
}

/// Recursively bisects `graph` until every leaf satisfies `fits` on its
/// aggregate weight.
///
/// `ws` carries the scratch buffers. Callers invoking the partitioner
/// repeatedly (one call per epoch, say) should hold one workspace so scratch
/// is allocated once; the result is byte-identical to a call with a fresh
/// [`PartitionWorkspace::new`].
///
/// When `config.parallel.threads > 1`, independent subgraph branches larger
/// than `config.parallel.min_parallel_vertices` are forked onto scoped
/// worker threads. Each branch's bisection seed is derived from the parent
/// seed and its depth exactly as in the sequential path, and children are
/// joined back left-then-right, so the returned tree is byte-identical to
/// the `threads = 1` run.
///
/// # Errors
///
/// Returns [`PartitionError::EmptyGraph`] for empty input and
/// [`PartitionError::IndivisibleVertex`] when a single vertex alone fails
/// `fits` (the recursion could never terminate).
pub fn recursive_bisect_in<F>(
    graph: &Graph,
    fits: F,
    config: &BisectConfig,
    ws: &mut PartitionWorkspace,
) -> Result<PartitionTree, PartitionError>
where
    F: Fn(&VertexWeight) -> bool + Sync,
{
    if graph.vertex_count() == 0 {
        return Err(PartitionError::EmptyGraph);
    }
    // Pre-validate: every single vertex must individually fit.
    for v in 0..graph.vertex_count() {
        if !fits(&graph.vertex_weight(v)) {
            return Err(PartitionError::IndivisibleVertex { vertex: v });
        }
    }
    let all: Vec<VertexId> = (0..graph.vertex_count()).collect();
    Ok(recurse(
        graph,
        None,
        &all,
        &fits,
        config,
        0,
        config.parallel.fork_levels(),
        ws,
    ))
}

/// Builds the subtree over `ids` (original vertex ids, ascending within
/// each node). The node's graph is [`node_graph`]`(parent, local)`; it is
/// extracted only once the node is known to split, so leaves build none.
/// The node weight sums the parent's copies of the node's weight rows in
/// the same order as the original's, so it is the same float.
#[allow(clippy::too_many_arguments)]
fn recurse<F>(
    parent: &Graph,
    local: Option<&[usize]>,
    ids: &[VertexId],
    fits: &F,
    config: &BisectConfig,
    depth: usize,
    fork_levels: u32,
    ws: &mut PartitionWorkspace,
) -> PartitionTree
where
    F: Fn(&VertexWeight) -> bool + Sync,
{
    // At the root `ids` is `0..n`, the parent's own indices.
    let weight = parent.subset_weight(local.unwrap_or(ids));
    if fits(&weight) || ids.len() == 1 {
        return PartitionTree {
            vertices: ids.to_vec(),
            weight,
            children: Vec::new(),
            depth,
        };
    }
    let graph = node_graph(parent, local, ws);
    // Vary the seed with depth so sibling splits explore different initial
    // seeds while remaining deterministic.
    let seed = config.seed.wrapping_add(depth as u64 * 0x9e37_79b9);
    let bis = bisect_with_seed(&graph, 0.5, config, seed, ws);
    let (zero, one) = split_indices(&bis.side);
    // Guard against degenerate splits (should not happen, but a graph of
    // identical heavy vertices plus tolerance could produce one); fall back
    // to an even index split.
    let (zero, one) = if zero.is_empty() || one.is_empty() {
        let mid = ids.len() / 2;
        ((0..mid).collect(), (mid..ids.len()).collect())
    } else {
        (zero, one)
    };
    // Node vertex `i` is `ids[i]` (extraction preserves order), so local
    // split indices map straight back through the slice.
    let left_ids: Vec<VertexId> = zero.iter().map(|&i| ids[i]).collect();
    let right_ids: Vec<VertexId> = one.iter().map(|&i| ids[i]).collect();
    let child = |local: &[usize], ids: &[VertexId], levels, ws: &mut PartitionWorkspace| {
        recurse(
            &graph,
            Some(local),
            ids,
            fits,
            config,
            depth + 1,
            levels,
            ws,
        )
    };
    let (left, right) = fork_join(
        ids.len(),
        config,
        fork_levels,
        ws,
        |levels, ws| child(&zero, &left_ids, levels, ws),
        |levels, ws| child(&one, &right_ids, levels, ws),
    );
    PartitionTree {
        vertices: ids.to_vec(),
        weight,
        children: vec![left, right],
        depth,
    }
}

/// Partitions `graph` into exactly `k` balanced parts by recursive bisection
/// with proportional fractions (the standard METIS k-way driver).
///
/// Returns a per-vertex part id in `0..k`. `ws` carries the scratch buffers
/// for allocation-free repeated calls; the labeling is byte-identical to a
/// call with a fresh [`PartitionWorkspace::new`]. As with
/// [`recursive_bisect_in`], `config.parallel` forks independent branches
/// above the size threshold; branch seeds mix only depth and part base, so
/// the labeling is byte-identical to the sequential run.
///
/// # Errors
///
/// Returns [`PartitionError::InvalidPartCount`] when `k == 0` or `k` exceeds
/// the vertex count.
pub fn partition_kway_in(
    graph: &Graph,
    k: usize,
    config: &BisectConfig,
    ws: &mut PartitionWorkspace,
) -> Result<Vec<usize>, PartitionError> {
    let n = graph.vertex_count();
    if k == 0 || k > n {
        return Err(PartitionError::InvalidPartCount {
            requested: k,
            vertices: n,
        });
    }
    // The root's vertex `i` is graph vertex `i`, so the positional labels
    // are already the per-vertex part ids.
    Ok(kway_recurse(
        graph,
        None,
        k,
        0,
        config,
        0,
        config.parallel.fork_levels(),
        ws,
    ))
}

/// Returns the part id of each vertex of the node graph
/// [`node_graph`]`(parent, local)`, positionally; a node with `k == 1`
/// never extracts it. Pure function of its inputs — parallel branches
/// write no shared state, so forking cannot reorder or race anything.
#[allow(clippy::too_many_arguments)]
fn kway_recurse(
    parent: &Graph,
    local: Option<&[usize]>,
    k: usize,
    base: usize,
    config: &BisectConfig,
    depth: usize,
    fork_levels: u32,
    ws: &mut PartitionWorkspace,
) -> Vec<usize> {
    if k == 1 {
        return vec![base; local.map_or(parent.vertex_count(), <[usize]>::len)];
    }
    let graph = node_graph(parent, local, ws);
    let n = graph.vertex_count();
    let kl = k / 2;
    let kr = k - kl;
    let frac = kl as f64 / k as f64;
    let seed = config.seed.wrapping_add((depth as u64) << 32 | base as u64);
    let bis = bisect_with_seed(&graph, frac, config, seed, ws);
    let (zero, one) = split_indices(&bis.side);
    let (zero, one) = if zero.len() < kl || one.len() < kr {
        // Degenerate: force an index split so each side keeps >= its k.
        let mid = n * kl / k;
        (
            (0..mid.max(kl)).collect::<Vec<_>>(),
            (mid.max(kl)..n).collect::<Vec<_>>(),
        )
    } else {
        (zero, one)
    };
    let (left, right) = fork_join(
        n,
        config,
        fork_levels,
        ws,
        |levels, ws| kway_recurse(&graph, Some(&zero), kl, base, config, depth + 1, levels, ws),
        |levels, ws| {
            kway_recurse(
                &graph,
                Some(&one),
                kr,
                base + kl,
                config,
                depth + 1,
                levels,
                ws,
            )
        },
    );
    // `zero`/`one` are local indices into the node graph, so scatter the
    // branch labels back by position.
    let mut out = vec![0usize; n];
    for (j, &i) in zero.iter().enumerate() {
        out[i] = left[j];
    }
    for (j, &i) in one.iter().enumerate() {
        out[i] = right[j];
    }
    out
}

/// A node's graph: `parent` restricted to the ascending local indices
/// `local`, or `parent` itself, uncopied, at the root (`None`). Extracting
/// from the parent node rather than the original reads only the parent's
/// rows, and is bit-identical: rows filter in the same order and weights
/// are copied.
fn node_graph<'a>(
    parent: &'a Graph,
    local: Option<&[usize]>,
    ws: &mut PartitionWorkspace,
) -> Cow<'a, Graph> {
    match local {
        Some(local) => Cow::Owned(parent.subgraph_in(local, ws)),
        None => Cow::Borrowed(parent),
    }
}

/// Runs the two branches of a split over `vertices` vertices, each given
/// the fork levels left below it and the workspace to use.
///
/// With fork levels left and at least `config.parallel.min_parallel_vertices`
/// vertices, the left branch forks onto a scoped thread with a private
/// workspace (scratch is never shared across threads) while the right one
/// runs here on `ws`; otherwise both run inline on `ws`, left first.
/// Branches operate on disjoint vertex sets and carry depth-derived seeds,
/// so forking changes nothing but wall-clock time, and the join order
/// (left, then right) is fixed regardless of completion order.
fn fork_join<T, L, R>(
    vertices: usize,
    config: &BisectConfig,
    fork_levels: u32,
    ws: &mut PartitionWorkspace,
    left: L,
    right: R,
) -> (T, T)
where
    T: Send,
    L: FnOnce(u32, &mut PartitionWorkspace) -> T + Send,
    R: FnOnce(u32, &mut PartitionWorkspace) -> T,
{
    if fork_levels == 0 || vertices < config.parallel.min_parallel_vertices {
        let l = left(fork_levels, ws);
        return (l, right(fork_levels, ws));
    }
    std::thread::scope(|s| {
        let l = s.spawn(|| left(fork_levels - 1, &mut PartitionWorkspace::new()));
        let r = right(fork_levels - 1, ws);
        // lint:allow(no-panic-in-libs) -- re-raising a child thread's
        // panic is the only sound response to a poisoned scoped join;
        // swallowing it would silently return a half-computed partition.
        (l.join().expect("partition branch panicked"), r)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, VertexWeight};
    use crate::parallel::ParallelConfig;
    use crate::{multilevel_bisect_in, PartitionWorkspace};
    use proptest::prelude::*;

    /// 4 cliques of 4 unit-weight vertices, ring-connected.
    fn clique_ring() -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..16 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        for c in 0..4 {
            let base = c * 4;
            for i in 0..4 {
                for j in i + 1..4 {
                    b.add_edge(base + i, base + j, 20);
                }
            }
            b.add_edge(base, ((c + 1) % 4) * 4, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn stops_when_groups_fit() {
        let g = clique_ring();
        let cap = VertexWeight::new([4.5]);
        let tree = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        let leaves = tree.leaves();
        assert!(
            leaves.len() >= 4,
            "needs at least 4 groups, got {}",
            leaves.len()
        );
        for leaf in &leaves {
            assert!(leaf.weight.fits_within(&cap), "leaf weight {}", leaf.weight);
        }
        // Every vertex appears exactly once across leaves.
        let mut seen = [false; 16];
        for leaf in &leaves {
            for &v in &leaf.vertices {
                assert!(!seen[v], "vertex {v} appears twice");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn cliques_stay_together() {
        let g = clique_ring();
        let cap = VertexWeight::new([4.5]);
        let tree = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        let assign = tree.group_assignment(16);
        for c in 0..4 {
            let base = c * 4;
            for i in 1..4 {
                assert_eq!(
                    assign[base],
                    assign[base + i],
                    "clique {c} split across groups"
                );
            }
        }
    }

    #[test]
    fn trivially_fitting_graph_is_one_leaf() {
        let g = clique_ring();
        let cap = VertexWeight::new([100.0]);
        let tree = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        assert!(tree.is_leaf());
        assert_eq!(tree.leaf_count(), 1);
    }

    #[test]
    fn indivisible_vertex_detected() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(VertexWeight::new([10.0]));
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(0, 1, 1);
        let g = b.build().unwrap();
        let cap = VertexWeight::new([5.0]);
        let err = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        );
        assert_eq!(
            err.unwrap_err(),
            PartitionError::IndivisibleVertex { vertex: 0 }
        );
    }

    #[test]
    fn empty_graph_rejected() {
        let g = GraphBuilder::new(1).build().unwrap();
        let err = recursive_bisect_in(
            &g,
            |_| true,
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        );
        assert_eq!(err.unwrap_err(), PartitionError::EmptyGraph);
    }

    #[test]
    fn kway_produces_k_nonempty_parts() {
        let g = clique_ring();
        for k in [2, 3, 4, 5, 7] {
            let part = partition_kway_in(
                &g,
                k,
                &BisectConfig::default(),
                &mut PartitionWorkspace::new(),
            )
            .unwrap();
            let mut sizes = vec![0usize; k];
            for &p in &part {
                assert!(p < k);
                sizes[p] += 1;
            }
            assert!(sizes.iter().all(|&s| s > 0), "k={k} sizes={sizes:?}");
        }
    }

    #[test]
    fn kway_4_matches_cliques() {
        let g = clique_ring();
        let part = partition_kway_in(
            &g,
            4,
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        for c in 0..4 {
            let base = c * 4;
            for i in 1..4 {
                assert_eq!(part[base], part[base + i]);
            }
        }
        assert_eq!(g.cut_kway(&part), 4, "ring of 4 bridges all cut");
    }

    #[test]
    fn kway_invalid_inputs() {
        let g = clique_ring();
        assert!(matches!(
            partition_kway_in(
                &g,
                0,
                &BisectConfig::default(),
                &mut PartitionWorkspace::new()
            ),
            Err(PartitionError::InvalidPartCount { .. })
        ));
        assert!(matches!(
            partition_kway_in(
                &g,
                17,
                &BisectConfig::default(),
                &mut PartitionWorkspace::new()
            ),
            Err(PartitionError::InvalidPartCount { .. })
        ));
    }

    #[test]
    fn parallel_tree_is_byte_identical_to_sequential() {
        let g = clique_ring();
        let cap = VertexWeight::new([4.5]);
        let seq = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        for threads in [2, 3, 4, 8] {
            let cfg = BisectConfig {
                parallel: ParallelConfig {
                    min_parallel_vertices: 2,
                    ..ParallelConfig::with_threads(threads)
                },
                ..BisectConfig::default()
            };
            let par = recursive_bisect_in(
                &g,
                |w| w.fits_within(&cap),
                &cfg,
                &mut PartitionWorkspace::new(),
            )
            .unwrap();
            assert_eq!(seq, par, "threads {threads}");
        }
    }

    #[test]
    fn parallel_kway_is_byte_identical_to_sequential() {
        let g = clique_ring();
        for k in [2, 3, 4, 5, 7] {
            let seq = partition_kway_in(
                &g,
                k,
                &BisectConfig::default(),
                &mut PartitionWorkspace::new(),
            )
            .unwrap();
            for threads in [2, 4, 8] {
                let cfg = BisectConfig {
                    parallel: ParallelConfig {
                        min_parallel_vertices: 2,
                        ..ParallelConfig::with_threads(threads)
                    },
                    ..BisectConfig::default()
                };
                let par = partition_kway_in(&g, k, &cfg, &mut PartitionWorkspace::new()).unwrap();
                assert_eq!(seq, par, "k {k} threads {threads}");
            }
        }
    }

    #[test]
    fn threshold_gates_forking_without_changing_results() {
        // A threshold larger than the graph forces the sequential path even
        // with a big thread budget; results must still match.
        let g = clique_ring();
        let cap = VertexWeight::new([4.5]);
        let seq = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        let cfg = BisectConfig {
            parallel: ParallelConfig {
                min_parallel_vertices: 10_000,
                ..ParallelConfig::with_threads(16)
            },
            ..BisectConfig::default()
        };
        let gated = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &cfg,
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        assert_eq!(seq, gated);
    }

    #[test]
    fn group_assignment_covers_only_tree_vertices() {
        let g = clique_ring();
        let vertices = [0, 1, 2, 3];
        let sub = g.subgraph_in(&vertices, &mut PartitionWorkspace::new());
        let cap = VertexWeight::new([2.5]);
        let tree = recursive_bisect_in(
            &sub,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        // Tree is over the subgraph's 4 vertices; `vertices` itself maps
        // subgraph ids back to original ids.
        let assign = tree.group_assignment(4);
        assert!(assign.iter().all(|&a| a != usize::MAX));
        assert_eq!(sub.vertex_count(), vertices.len());
    }

    /// A random graph: unit-to-moderate vertex weights over `dims`
    /// dimensions and random edges (negative ones included).
    fn random_graph(dims: usize, weights: &[f64], edges: &[(usize, usize, i64)]) -> Graph {
        let mut b = GraphBuilder::new(dims);
        for w in weights.chunks(dims) {
            b.add_vertex(VertexWeight::new(w));
        }
        for &(u, v, w) in edges {
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        b.build().unwrap()
    }

    fn arb_graph(vertices: std::ops::Range<usize>, dims: usize) -> impl Strategy<Value = Graph> {
        vertices.prop_flat_map(move |n| {
            (
                proptest::collection::vec(0.1f64..5.0, n * dims),
                proptest::collection::vec((0..n, 0..n, -10i64..60), 0..n * 4),
            )
                .prop_map(move |(weights, edges)| random_graph(dims, &weights, &edges))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Workspace buffers carry no state between calls: after a larger,
        /// unrelated graph has dirtied the workspace (higher-water buffers,
        /// advanced stamp epochs), every driver returns exactly what it
        /// returns on a fresh workspace.
        #[test]
        fn workspace_reuse_is_byte_identical(
            g in arb_graph(4..60, 2),
            dirt in arb_graph(80..200, 3),
            k in 2usize..5,
            cap in 5.0f64..30.0,
        ) {
            let cfg = BisectConfig::default();
            let cap = VertexWeight::new([cap; 2]);
            let fits = |w: &VertexWeight| w.fits_within(&cap);
            let mut ws = PartitionWorkspace::new();
            partition_kway_in(&dirt, 7, &cfg, &mut ws).unwrap();
            multilevel_bisect_in(&dirt, 0.3, &cfg, &mut ws);

            let fresh = partition_kway_in(&g, k, &cfg, &mut PartitionWorkspace::new()).unwrap();
            prop_assert_eq!(partition_kway_in(&g, k, &cfg, &mut ws).unwrap(), fresh);
            let fresh = recursive_bisect_in(&g, fits, &cfg, &mut PartitionWorkspace::new()).unwrap();
            prop_assert_eq!(recursive_bisect_in(&g, fits, &cfg, &mut ws).unwrap(), fresh);
            let fresh = multilevel_bisect_in(&g, 0.5, &cfg, &mut PartitionWorkspace::new());
            let warm = multilevel_bisect_in(&g, 0.5, &cfg, &mut ws);
            prop_assert_eq!(warm.side, fresh.side);
            prop_assert_eq!(warm.cut, fresh.cut);
        }
    }

    /// The k-way driver as it was before node-owned graphs: every node
    /// extracts its vertices' rows from the original graph. Sequential;
    /// the reference the forking driver must match at any thread count.
    fn kway_reference(
        original: &Graph,
        vertices: &[VertexId],
        k: usize,
        base: usize,
        config: &BisectConfig,
        depth: usize,
        ws: &mut PartitionWorkspace,
    ) -> Vec<usize> {
        if k == 1 {
            return vec![base; vertices.len()];
        }
        let (kl, kr) = (k / 2, k - k / 2);
        let sub = original.subgraph_in(vertices, ws);
        let seed = config.seed.wrapping_add((depth as u64) << 32 | base as u64);
        let bis = bisect_with_seed(&sub, kl as f64 / k as f64, config, seed, ws);
        let (zero, one) = split_indices(&bis.side);
        let (zero, one) = if zero.len() < kl || one.len() < kr {
            let mid = (vertices.len() * kl / k).max(kl);
            ((0..mid).collect(), (mid..vertices.len()).collect())
        } else {
            (zero, one)
        };
        let ids = |local: &[usize]| local.iter().map(|&i| vertices[i]).collect::<Vec<_>>();
        let left = kway_reference(original, &ids(&zero), kl, base, config, depth + 1, ws);
        let right = kway_reference(original, &ids(&one), kr, base + kl, config, depth + 1, ws);
        let mut out = vec![0; vertices.len()];
        for (&i, p) in zero.iter().zip(left).chain(one.iter().zip(right)) {
            out[i] = p;
        }
        out
    }

    /// `recursive_bisect_in`'s recursion as it was before node-owned
    /// graphs, extracting every node from the original graph.
    fn recurse_reference(
        original: &Graph,
        vertices: &[VertexId],
        fits: &dyn Fn(&VertexWeight) -> bool,
        config: &BisectConfig,
        depth: usize,
        ws: &mut PartitionWorkspace,
    ) -> PartitionTree {
        let weight = original.subset_weight(vertices);
        let mut node = PartitionTree {
            vertices: vertices.to_vec(),
            weight,
            children: Vec::new(),
            depth,
        };
        if fits(&node.weight) || vertices.len() == 1 {
            return node;
        }
        let sub = original.subgraph_in(vertices, ws);
        let seed = config.seed.wrapping_add(depth as u64 * 0x9e37_79b9);
        let bis = bisect_with_seed(&sub, 0.5, config, seed, ws);
        let (zero, one) = split_indices(&bis.side);
        let (zero, one) = if zero.is_empty() || one.is_empty() {
            let mid = vertices.len() / 2;
            ((0..mid).collect(), (mid..vertices.len()).collect())
        } else {
            (zero, one)
        };
        for local in [zero, one] {
            let ids: Vec<VertexId> = local.iter().map(|&i| vertices[i]).collect();
            let child = recurse_reference(original, &ids, fits, config, depth + 1, ws);
            node.children.push(child);
        }
        node
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Extracting each node from its parent's graph instead of from the
        /// original changes no byte: both drivers match the
        /// extract-from-original references, sequential and forked.
        #[test]
        fn node_owned_graphs_match_extract_from_original(
            g in arb_graph(2..200, 2),
            k in 1usize..40,
            cap in 3.0f64..40.0,
        ) {
            let k = k.min(g.vertex_count());
            let cap = VertexWeight::new([cap; 2]);
            let fits = |w: &VertexWeight| w.fits_within(&cap);
            let all: Vec<VertexId> = (0..g.vertex_count()).collect();
            let mut ws = PartitionWorkspace::new();
            for threads in [1, 4] {
                let cfg = BisectConfig {
                    parallel: ParallelConfig {
                        min_parallel_vertices: 2,
                        ..ParallelConfig::with_threads(threads)
                    },
                    ..BisectConfig::default()
                };
                let want = kway_reference(&g, &all, k, 0, &cfg, 0, &mut PartitionWorkspace::new());
                prop_assert_eq!(partition_kway_in(&g, k, &cfg, &mut ws).unwrap(), want);
                if (0..g.vertex_count()).all(|v| fits(&g.vertex_weight(v))) {
                    let want = recurse_reference(&g, &all, &fits, &cfg, 0, &mut PartitionWorkspace::new());
                    prop_assert_eq!(recursive_bisect_in(&g, fits, &cfg, &mut ws).unwrap(), want);
                }
            }
        }
    }

    /// Scaling lock, counted in adjacency reads rather than seconds, on the
    /// search-trace shape at the paper-scale ratio of ~25 vertices per
    /// part: each node extracts its graph from its parent's, so a whole
    /// k-way pass reads a small multiple of `|adjncy|`.
    /// Extracting every node from the original reads about
    /// `2 · ⌈log₂ k⌉ · |adjncy|`; the lock allows half of that.
    #[test]
    fn kway_extraction_reads_scale_with_node_graphs() {
        let g = crate::coarsen::tests::hub_graph(5_000, 10, 0, 3);
        let k = g.vertex_count() / 25;
        let mut ws = PartitionWorkspace::new();
        partition_kway_in(&g, k, &BisectConfig::default(), &mut ws).unwrap();
        let scans = ws.subgraph.row_scans as f64 / g.adjncy().len() as f64;
        let from_original = 2.0 * (k as f64).log2().ceil();
        assert!(
            scans <= from_original / 2.0,
            "extraction read {scans:.2} × |adjncy| (from the original: ~{from_original})"
        );
    }

    #[test]
    fn leaf_order_keeps_siblings_adjacent() {
        let g = clique_ring();
        let cap = VertexWeight::new([4.5]);
        let tree = recursive_bisect_in(
            &g,
            |w| w.fits_within(&cap),
            &BisectConfig::default(),
            &mut PartitionWorkspace::new(),
        )
        .unwrap();
        // Sibling leaves share a parent; in the leaves() order they must be
        // adjacent. Verify via depth bookkeeping: collect (parent ptr) order.
        let leaves = tree.leaves();
        // With 4 equal cliques the tree is a perfect 2-level binary tree:
        // leaves 0,1 share a parent and leaves 2,3 share a parent. Check that
        // the union of leaves 0 and 1 equals one side of the root split.
        if leaves.len() == 4 && tree.children.len() == 2 {
            let left: std::collections::BTreeSet<_> =
                tree.children[0].vertices.iter().copied().collect();
            let l01: std::collections::BTreeSet<_> = leaves[0]
                .vertices
                .iter()
                .chain(&leaves[1].vertices)
                .copied()
                .collect();
            assert_eq!(left, l01);
        }
    }
}
