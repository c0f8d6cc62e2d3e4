//! Initial bisection of the coarsest graph: greedy graph growing (GGGP).
//!
//! Starting from a random seed vertex, the region (side 0) grows by absorbing
//! the outside vertex with the highest gain (reduction in cut if absorbed),
//! lowest id on ties, until side 0 reaches its weight target. Up to
//! `trials` trials from random seeds are run and the first feasible one with
//! the smallest cut wins — the classic strategy METIS uses at the bottom of
//! the multilevel stack.
//!
//! The trials stop at the cut floor ([`Graph::cut_floor`], the sum of the
//! negative edge weights, 0 without anti-affinity edges), as METIS 5.1's
//! `GrowBisection` stops once its best cut is 0. No bisection cuts less than
//! the floor and a later trial replaces the best only with a strictly
//! smaller feasible cut, so once a feasible trial reaches the floor no later
//! one can win. The multilevel bisection reads its generator nowhere after
//! the trials, so stopping early leaves every partition byte-identical. An
//! edgeless graph — every trial cuts 0 — grows once instead of `trials`
//! times.
//!
//! Like METIS, growing picks each vertex from a priority queue keyed
//! `(gain, Reverse(v))`, which yields exactly the vertex an argmax scan over
//! all outside vertices would pick. As in METIS 5.1's `GrowBisection`, the
//! queue — the shared indexed [`VertexHeap`] — holds only the vertices an
//! absorption has touched. Every untouched outside vertex has gain 0, so an
//! ascending [`IdCursor`] serves them, and each step takes the higher-ranked
//! of the heap top and the cursor. A trial costs O(n) to reset plus
//! O(|E| log n) for what it absorbs, rather than the scan's O(n²) or a full
//! heap's O(n log n), which matters where coarsening cannot shrink the graph
//! — an edgeless graph of thousands of tenants reaches this stage at full
//! size and never touches the heap.

use goldilocks_rng::SplitMix64;

use crate::balance::{add_side_weights, imbalance_of, side_targets_into, within_tolerance};
use crate::graph::{EdgeWeight, Graph};
use crate::heap::{IdCursor, VertexHeap};
use crate::workspace::InitialScratch;

/// Result of an initial bisection attempt.
#[derive(Clone, Debug)]
pub(crate) struct Bisection {
    /// Per-vertex side (0 or 1).
    pub(crate) side: Vec<u8>,
    /// Cut value of that assignment.
    pub(crate) cut: EdgeWeight,
}

/// Sets up one trial: every vertex on side 1 with gain 0, nothing absorbed,
/// and the per-dimension targets at `frac` of the total weight.
fn reset_trial(graph: &Graph, frac: f64, ws: &mut InitialScratch) {
    let n = graph.vertex_count();
    ws.side.clear();
    ws.side.resize(n, 1u8);
    // gain[v] = (weight to side 0) - (weight to side 1); absorbing a vertex
    // with high gain reduces the cut most.
    ws.gain.clear();
    ws.gain.resize(n, 0);
    ws.absorbed.clear();
    ws.absorbed.resize(graph.dims(), 0.0);
    ws.target.clear();
    ws.target.extend(
        graph
            .total_vertex_weight_slice()
            .iter()
            .map(|total| total * frac),
    );
}

/// Whether side 0 is full: the average fill ratio over the dimensions with
/// a positive target reaches 1.
fn reached(absorbed: &[f64], target: &[f64]) -> bool {
    let mut ratio_sum = 0.0;
    let mut count = 0;
    for (a, t) in absorbed.iter().zip(target) {
        if *t > 0.0 {
            ratio_sum += a / t;
            count += 1;
        }
    }
    count == 0 || ratio_sum / count as f64 >= 1.0
}

/// Grows a region from `seed` until side 0 holds ~`frac` of the total
/// weight. The assignment is left in `ws.side`; every buffer comes from the
/// reusable scratch so repeated trials allocate nothing.
// analyze:hot-path -- one greedy-growing trial: warm trials must not allocate
fn grow_from(graph: &Graph, seed: usize, frac: f64, ws: &mut InitialScratch) {
    reset_trial(graph, frac, ws);
    let InitialScratch {
        side,
        gain,
        absorbed,
        target,
        heap,
        heap_pos,
        heap_ops,
        cursor_takes,
        ..
    } = ws;
    // Every vertex but the seed starts outside with gain 0. The heap holds
    // the outside vertices an absorption has touched; the cursor serves the
    // untouched ones, whose gain is still 0, in id order.
    let n = graph.vertex_count();
    let mut heap = VertexHeap::new(heap, heap_pos, n);
    let mut cursor = IdCursor::new(n);

    let mut next = Some(seed);
    while let Some(v) = next {
        side[v] = 0;
        for (a, w) in absorbed.iter_mut().zip(graph.vertex_weight_slice(v)) {
            *a += w;
        }
        for (u, w) in graph.neighbors(v) {
            // u's connectivity to side 0 grew by w and to side 1 shrank by
            // w. Weights may be zero or negative, so gains move either way.
            gain[u] += 2 * w;
            if side[u] == 1 {
                heap.push_or_update(gain[u], u);
            }
        }
        next = if reached(absorbed, target) {
            None
        } else {
            cursor.take(&mut heap, |heap, u| side[u] == 0 || heap.contains(u))
        };
    }
    *heap_ops += heap.ops();
    *cursor_takes += cursor.takes();
}

/// Runs up to `trials` greedy-growing attempts and returns the assignment
/// with the smallest cut among balance-feasible ones (or the
/// least-imbalanced one if none is feasible), stopping at the first
/// feasible trial that cuts exactly [`Graph::cut_floor`]. Trials reuse one
/// set of scratch buffers; only the returned assignment is allocated.
pub(crate) fn greedy_graph_growing_in(
    graph: &Graph,
    frac: f64,
    tolerance: f64,
    trials: usize,
    rng: &mut SplitMix64,
    ws: &mut InitialScratch,
) -> Bisection {
    best_of_trials(graph, frac, tolerance, trials, rng, ws, grow_from)
}

/// The trial loop of [`greedy_graph_growing_in`], over a growing step
/// `grow` (the heap-driven [`grow_from`]; tests pass the argmax-scan
/// oracle).
fn best_of_trials(
    graph: &Graph,
    frac: f64,
    tolerance: f64,
    trials: usize,
    rng: &mut SplitMix64,
    ws: &mut InitialScratch,
    grow: fn(&Graph, usize, f64, &mut InitialScratch),
) -> Bisection {
    assert!(
        graph.vertex_count() >= 2,
        "bisection needs at least two vertices"
    );
    match run_trials(graph, frac, tolerance, trials, rng, ws, grow) {
        Some(cut) => Bisection {
            side: ws.winner.clone(),
            cut,
        },
        None => {
            // All trials degenerated (e.g. edgeless graph grown greedily).
            // Fall back to a weight-greedy split: assign vertices to side 0
            // until its target is met.
            grow(graph, 0, frac, ws);
            ws.trials += 1;
            let cut = graph.cut(&ws.side);
            Bisection {
                side: ws.side.clone(),
                cut,
            }
        }
    }
}

/// Runs the trials of [`best_of_trials`] and leaves the winner in
/// `ws.winner`, returning its cut (`None` when every trial degenerated).
/// Each trial is judged from side sums kept in the scratch, with
/// [`BalanceTracker`](crate::balance::BalanceTracker)'s arithmetic, and a
/// new leader is copied into one of two scratch buffers, so warm trials
/// allocate nothing.
// analyze:hot-path -- the growing trial loop: warm trials judge and keep winners in scratch
fn run_trials(
    graph: &Graph,
    frac: f64,
    tolerance: f64,
    trials: usize,
    rng: &mut SplitMix64,
    ws: &mut InitialScratch,
    grow: fn(&Graph, usize, f64, &mut InitialScratch),
) -> Option<EdgeWeight> {
    let n = graph.vertex_count();
    let dims = graph.dims();
    let floor = graph.cut_floor();
    let total = graph.total_vertex_weight_slice();
    side_targets_into(total, frac, &mut ws.side_targets);
    // The cuts (and imbalance) of the assignments in `ws.winner` and
    // `ws.least_imbalanced`.
    let mut best_feasible: Option<EdgeWeight> = None;
    let mut best_any: Option<(EdgeWeight, f64)> = None;

    for _ in 0..trials.max(1) {
        let seed = rng.range(0..n);
        grow(graph, seed, frac, ws);
        ws.trials += 1;
        ws.sums.clear();
        ws.sums.resize(2 * dims, 0.0);
        let (sum0, sum1) = ws.sums.split_at_mut(dims);
        let ones = add_side_weights(graph, &ws.side, sum0, sum1);
        // Degenerate growth (all vertices on one side) is useless.
        if ones == 0 || ones == n {
            continue;
        }
        let cut = graph.cut(&ws.side);
        let imb = imbalance_of(total, sum0, sum1, &ws.side_targets);
        if within_tolerance(imb, tolerance) {
            if !matches!(best_feasible, Some(b) if b <= cut) {
                ws.winner.clone_from(&ws.side);
                best_feasible = Some(cut);
            }
            // No cut is below the floor, and a later trial replaces this
            // one only with a strictly smaller feasible cut.
            if cut == floor {
                break;
            }
        }
        if !matches!(best_any, Some((_, bi)) if bi <= imb) {
            ws.least_imbalanced.clone_from(&ws.side);
            best_any = Some((cut, imb));
        }
    }

    match (best_feasible, best_any) {
        (Some(cut), _) => Some(cut),
        (None, Some((cut, _))) => {
            std::mem::swap(&mut ws.winner, &mut ws.least_imbalanced);
            Some(cut)
        }
        (None, None) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::BalanceTracker;
    use crate::graph::{GraphBuilder, VertexWeight};
    use proptest::prelude::*;

    /// Two 4-cliques joined by a single light edge — the classic case where
    /// min-cut must split between the cliques.
    fn two_cliques() -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..8 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(i, j, 10);
                b.add_edge(i + 4, j + 4, 10);
            }
        }
        b.add_edge(0, 4, 1);
        b.build().unwrap()
    }

    #[test]
    fn finds_the_clique_cut() {
        let g = two_cliques();
        let mut rng = SplitMix64::seed_from_u64(42);
        let bis =
            greedy_graph_growing_in(&g, 0.5, 0.1, 8, &mut rng, &mut InitialScratch::default());
        assert_eq!(bis.cut, 1, "should cut only the bridge edge");
        // Each clique entirely on one side.
        for i in 1..4 {
            assert_eq!(bis.side[i], bis.side[0]);
            assert_eq!(bis.side[i + 4], bis.side[4]);
        }
        assert_ne!(bis.side[0], bis.side[4]);
    }

    #[test]
    fn respects_weight_fraction() {
        // 4 vertices of weight 1 and one of weight 4; frac 0.5 should put
        // either the heavy vertex alone or the four light ones on side 0.
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        b.add_vertex(VertexWeight::new([4.0]));
        for v in 0..4 {
            b.add_edge(v, 4, 1);
        }
        let g = b.build().unwrap();
        let mut rng = SplitMix64::seed_from_u64(7);
        let bis =
            greedy_graph_growing_in(&g, 0.5, 0.1, 16, &mut rng, &mut InitialScratch::default());
        let t = BalanceTracker::new(&g, &bis.side, 0.5, 0.1);
        assert!(t.is_feasible(), "imbalance {}", t.imbalance());
    }

    #[test]
    fn cut_value_matches_recomputation() {
        let g = two_cliques();
        let mut rng = SplitMix64::seed_from_u64(11);
        let bis =
            greedy_graph_growing_in(&g, 0.5, 0.2, 4, &mut rng, &mut InitialScratch::default());
        assert_eq!(bis.cut, g.cut(&bis.side));
    }

    #[test]
    fn works_on_edgeless_graph() {
        let mut b = GraphBuilder::new(1);
        for _ in 0..6 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        let g = b.build().unwrap();
        let mut rng = SplitMix64::seed_from_u64(5);
        let bis =
            greedy_graph_growing_in(&g, 0.5, 0.1, 4, &mut rng, &mut InitialScratch::default());
        assert_eq!(bis.cut, 0);
        let zeros = bis.side.iter().filter(|s| **s == 0).count();
        assert!(zeros > 0 && zeros < 6, "split must be non-degenerate");
    }

    #[test]
    fn two_vertex_graph() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(0, 1, 3);
        let g = b.build().unwrap();
        let mut rng = SplitMix64::seed_from_u64(2);
        let bis =
            greedy_graph_growing_in(&g, 0.5, 0.0, 4, &mut rng, &mut InitialScratch::default());
        assert_eq!(bis.cut, 3);
        assert_ne!(bis.side[0], bis.side[1]);
    }

    /// Greedy growing as it was before the heap: before each absorb, scan
    /// every outside vertex for the highest gain, lowest id on ties. Kept as
    /// the reference the heap-driven [`grow_from`] must match byte for
    /// byte. It counts one op per candidate it inspects, the scan's
    /// counterpart of a heap operation.
    fn grow_from_scan(graph: &Graph, seed: usize, frac: f64, ws: &mut InitialScratch) {
        reset_trial(graph, frac, ws);
        let n = graph.vertex_count();
        let mut next = Some(seed);
        while let Some(v) = next {
            ws.side[v] = 0;
            for (a, w) in ws.absorbed.iter_mut().zip(graph.vertex_weight_slice(v)) {
                *a += w;
            }
            for (u, w) in graph.neighbors(v) {
                ws.gain[u] += 2 * w;
            }
            if reached(&ws.absorbed, &ws.target) {
                break;
            }
            let mut best: Option<(usize, EdgeWeight)> = None;
            for u in (0..n).filter(|&u| ws.side[u] == 1) {
                ws.heap_ops += 1;
                match best {
                    Some((_, bg)) if ws.gain[u] <= bg => {}
                    _ => best = Some((u, ws.gain[u])),
                }
            }
            next = best.map(|(u, _)| u);
        }
    }

    /// The trial loop as it was before the floor exit: every requested
    /// trial runs and the first feasible one with the smallest cut wins.
    /// Kept as the reference [`best_of_trials`] must match byte for byte.
    fn best_of_all_trials(
        graph: &Graph,
        frac: f64,
        tolerance: f64,
        trials: usize,
        rng: &mut SplitMix64,
        ws: &mut InitialScratch,
    ) -> Bisection {
        let n = graph.vertex_count();
        let mut best_feasible: Option<Bisection> = None;
        let mut best_any: Option<(Bisection, f64)> = None;
        for _ in 0..trials.max(1) {
            let seed = rng.range(0..n);
            grow_from(graph, seed, frac, ws);
            let side = &ws.side;
            let ones = side.iter().filter(|s| **s == 1).count();
            if ones == 0 || ones == n {
                continue;
            }
            let cut = graph.cut(side);
            let tracker = BalanceTracker::new(graph, side, frac, tolerance);
            let imb = tracker.imbalance();
            if tracker.is_feasible() {
                match &best_feasible {
                    Some(b) if b.cut <= cut => {}
                    _ => {
                        best_feasible = Some(Bisection {
                            side: side.clone(),
                            cut,
                        })
                    }
                }
            }
            match &best_any {
                Some((_, bi)) if *bi <= imb => {}
                _ => {
                    best_any = Some((
                        Bisection {
                            side: side.clone(),
                            cut,
                        },
                        imb,
                    ))
                }
            }
        }
        best_feasible
            .or_else(|| best_any.map(|(b, _)| b))
            .unwrap_or_else(|| {
                grow_from(graph, 0, frac, ws);
                Bisection {
                    side: ws.side.clone(),
                    cut: graph.cut(&ws.side),
                }
            })
    }

    /// Runs the floor-exit loop and the all-trials reference from the same
    /// seed and checks they return the same bisection; returns the number
    /// of trials the floor-exit loop ran.
    fn assert_matches_all_trials(
        g: &Graph,
        frac: f64,
        tolerance: f64,
        trials: usize,
        seed: u64,
    ) -> u64 {
        let mut ws = InitialScratch::default();
        let exit = greedy_graph_growing_in(
            g,
            frac,
            tolerance,
            trials,
            &mut SplitMix64::seed_from_u64(seed),
            &mut ws,
        );
        let all = best_of_all_trials(
            g,
            frac,
            tolerance,
            trials,
            &mut SplitMix64::seed_from_u64(seed),
            &mut InitialScratch::default(),
        );
        assert_eq!(exit.side, all.side);
        assert_eq!(exit.cut, all.cut);
        assert!(exit.cut >= g.cut_floor());
        ws.trials
    }

    /// A graph of `n` vertices with `dims`-dimensional weights and edges
    /// (self-loops dropped, duplicates merged by the builder).
    fn graph_from(
        dims: usize,
        weights: &[Vec<f64>],
        edges: &[(usize, usize, EdgeWeight)],
    ) -> Graph {
        let mut b = GraphBuilder::new(dims);
        for w in weights {
            b.add_vertex(VertexWeight::new(w.clone()));
        }
        for &(u, v, w) in edges {
            if u != v {
                b.add_edge(u, v, w);
            }
        }
        b.build().unwrap()
    }

    /// Runs both growing steps through the same trial loop from the same
    /// RNG seed and checks they pick the same bisection.
    fn assert_matches_scan(g: &Graph, frac: f64, tolerance: f64, trials: usize, seed: u64) {
        let mut ws = InitialScratch::default();
        let heap = greedy_graph_growing_in(
            g,
            frac,
            tolerance,
            trials,
            &mut SplitMix64::seed_from_u64(seed),
            &mut ws,
        );
        let scan = best_of_trials(
            g,
            frac,
            tolerance,
            trials,
            &mut SplitMix64::seed_from_u64(seed),
            &mut InitialScratch::default(),
            grow_from_scan,
        );
        assert_eq!(heap.side, scan.side);
        assert_eq!(heap.cut, scan.cut);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The heap pops exactly the vertex the scan picks, so the trial
        /// loop returns identical side bytes and cut — with negative and
        /// zero edge weights (gains that fall), 1–3 weight dimensions
        /// (zero components included), edgeless graphs and n = 2.
        #[test]
        fn heap_growing_matches_the_scan(
            (dims, weights, edges) in (2usize..80, 1usize..=3).prop_flat_map(|(n, dims)| (
                Just(dims),
                proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![Just(0.0), 0.1f64..5.0], dims),
                    n,
                ),
                prop_oneof![
                    Just(Vec::new()),
                    proptest::collection::vec((0..n, 0..n, -20i64..40), 0..n * 4),
                    proptest::collection::vec((0..n, 0..n, -1i64..=1), 0..n * 2),
                ],
            )),
            frac in 0.1f64..0.9,
            tolerance in 0.0f64..0.3,
            trials in 1usize..12,
            seed in 0u64..1_000,
        ) {
            let g = graph_from(dims, &weights, &edges);
            assert_matches_scan(&g, frac, tolerance, trials, seed);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Stopping at the cut floor returns the same side bytes and cut as
        /// running every trial: mixed-sign weights, anti-affinity-only
        /// graphs (a negative floor), edgeless graphs, graphs whose edges
        /// stay inside one of two halves (disconnected, with isolated
        /// vertices) and 1–3 weight dimensions.
        #[test]
        fn floor_exit_matches_all_trials(
            (dims, weights, edges) in (2usize..60, 1usize..=3).prop_flat_map(|(n, dims)| (
                Just(dims),
                proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![Just(0.0), 0.1f64..5.0], dims),
                    n,
                ),
                prop_oneof![
                    Just(Vec::new()),
                    proptest::collection::vec((0..n, 0..n, -20i64..40), 0..n * 3),
                    proptest::collection::vec((0..n, 0..n, -6i64..=-1), 0..n),
                    proptest::collection::vec((0..n / 2, 0..n / 2, -3i64..10), 0..n),
                    proptest::collection::vec(
                        (0..n, 0..n, -3i64..10).prop_map(move |(u, v, w)| {
                            // Edges only within {v < n/2} or within {v >= n/2}.
                            let half = |x: usize| x < n / 2;
                            if half(u) == half(v) { (u, v, w) } else { (u, u, w) }
                        }),
                        0..n * 2,
                    ),
                ],
            )),
            frac in 0.1f64..0.9,
            tolerance in 0.0f64..0.3,
            trials in 1usize..12,
            seed in 0u64..1_000,
        ) {
            let g = graph_from(dims, &weights, &edges);
            let ran = assert_matches_all_trials(&g, frac, tolerance, trials, seed);
            prop_assert!(ran >= 1 && ran <= trials as u64 + 1);
        }
    }

    /// The exit fires where it should: an edgeless graph grows once, and
    /// an anti-affinity pair whose feasible split cuts it grows once too.
    #[test]
    fn floor_exit_stops_after_the_first_floor_trial() {
        let one = |n: usize| vec![vec![1.0]; n];
        assert_eq!(
            assert_matches_all_trials(&graph_from(1, &one(40), &[]), 0.5, 0.05, 8, 3),
            1
        );
        let pair = graph_from(1, &one(2), &[(0, 1, -5)]);
        assert_eq!(pair.cut_floor(), -5);
        assert_eq!(assert_matches_all_trials(&pair, 0.5, 0.0, 8, 3), 1);
        // The two cliques' floor is 0 and every bisection cuts an edge, so
        // every requested trial runs.
        assert_eq!(assert_matches_all_trials(&two_cliques(), 0.5, 0.1, 8, 3), 8);
    }

    #[test]
    fn heap_growing_matches_the_scan_on_fixed_shapes() {
        let one = |n: usize| vec![vec![1.0]; n];
        let shapes = [
            graph_from(1, &one(2), &[]),
            graph_from(1, &one(2), &[(0, 1, -3)]),
            graph_from(1, &one(2), &[(0, 1, 0)]),
            graph_from(1, &one(300), &[]),
            graph_from(2, &vec![vec![1.0, 0.0]; 50], &[(0, 1, 5), (1, 2, -5)]),
            two_cliques(),
        ];
        for g in &shapes {
            for trials in [1, 4, 16] {
                for seed in 0..8 {
                    assert_matches_scan(g, 0.5, 0.05, trials, seed);
                }
            }
        }
    }

    /// An edgeless graph (`sparse == false`) or one with ~2n random
    /// edges, `n` vertices of mixed weight.
    fn scaling_graph(n: usize, sparse: bool) -> Graph {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut next = move |m: usize| rng.range(0..m);
        let weights: Vec<Vec<f64>> = (0..n).map(|v| vec![1.0 + (v % 3) as f64]).collect();
        let edges: Vec<(usize, usize, EdgeWeight)> = if sparse {
            (0..2 * n)
                .map(|_| (next(n), next(n), next(40) as EdgeWeight - 5))
                .collect()
        } else {
            Vec::new()
        };
        graph_from(1, &weights, &edges)
    }

    /// Counted ops per trial run (at most `trials`; fewer once a trial
    /// reaches the cut floor), and `n + |E|`. An op is a heap operation or
    /// a candidate the id cursor serves.
    fn ops_per_trial(
        g: &Graph,
        trials: usize,
        grow: fn(&Graph, usize, f64, &mut InitialScratch),
    ) -> (f64, f64) {
        let mut ws = InitialScratch::default();
        let mut rng = SplitMix64::seed_from_u64(9);
        best_of_trials(g, 0.5, 0.05, trials, &mut rng, &mut ws, grow);
        let size = (g.vertex_count() + g.edge_count()) as f64;
        let ops = ws.heap_ops + ws.cursor_takes;
        (ops as f64 / ws.trials as f64, size)
    }

    /// Scaling lock, counted in heap operations and cursor takes rather
    /// than seconds: a trial does at most 2(n + |E|) of them, so 4× the
    /// graph costs ~4× the ops (≤ 4.5× allowed), on edgeless and sparse
    /// graphs alike.
    #[test]
    fn growing_ops_scale_linearly() {
        for sparse in [false, true] {
            let (small, small_size) = ops_per_trial(&scaling_graph(5_000, sparse), 4, grow_from);
            let (large, large_size) = ops_per_trial(&scaling_graph(20_000, sparse), 4, grow_from);
            for (ops, size) in [(small, small_size), (large, large_size)] {
                assert!(
                    ops <= 2.0 * size,
                    "{ops} ops per trial for n + |E| = {size}"
                );
            }
            let ratio = large / small;
            assert!(
                ratio <= 4.5,
                "sparse={sparse}: 4× the vertices cost {ratio:.2}× the heap ops"
            );
        }
    }

    /// Work lock, counted in trials: a k-way pass over an edgeless
    /// unit-weight graph runs exactly one growing trial per bisection (k − 1
    /// of them), at n and at 4n. Without the floor exit each bisection runs
    /// all `initial_trials` = 8.
    #[test]
    fn edgeless_kway_grows_once_per_bisection() {
        let k = 12;
        for n in [2_000, 8_000] {
            let g = graph_from(1, &vec![vec![1.0]; n], &[]);
            let mut ws = crate::PartitionWorkspace::new();
            let config = crate::BisectConfig::default();
            crate::partition_kway_in(&g, k, &config, &mut ws).unwrap();
            assert_eq!(
                config.parallel.threads, 1,
                "one workspace sees every bisection"
            );
            assert_eq!(ws.initial.trials, k as u64 - 1, "n = {n}");
        }
    }

    /// Work lock, counted in heap operations: a k-way pass over an edgeless
    /// graph with 3-dimension weights touches no candidate heap, at n and
    /// at 4n. Every gain is 0, so growing takes each vertex from the id
    /// cursor and FM's balance repair walks the isolated vertices with it;
    /// a heap holding every candidate costs O(n log n) per trial and pass.
    #[test]
    fn edgeless_kway_makes_no_heap_operations() {
        for n in [2_000, 8_000] {
            // Demands that trend with the id, so a region grown in id
            // order is lopsided per dimension and FM must repair it.
            let weights: Vec<Vec<f64>> = (0..n)
                .map(|v| {
                    let t = v as f64 / n as f64;
                    vec![1.0 + t, 2.0 - t, 0.5 + (v % 7) as f64 / 7.0]
                })
                .collect();
            let g = graph_from(3, &weights, &[]);
            let mut ws = crate::PartitionWorkspace::new();
            crate::partition_kway_in(&g, 12, &crate::BisectConfig::default(), &mut ws).unwrap();
            assert!(ws.initial.cursor_takes > 0, "n = {n}: growing ran");
            assert_eq!(ws.initial.heap_ops, 0, "n = {n}: growing heap ops");
            assert_eq!(ws.refine.heap_ops, 0, "n = {n}: FM heap ops");
        }
    }

    /// The lock has teeth: the scan's op count (candidates inspected)
    /// grows ~16× for 4× the vertices, far above the 4.5× bound.
    #[test]
    fn the_scan_would_fail_the_scaling_lock() {
        let (small, _) = ops_per_trial(&scaling_graph(500, false), 2, grow_from_scan);
        let (large, _) = ops_per_trial(&scaling_graph(2_000, false), 2, grow_from_scan);
        assert!(large / small > 12.0, "scan ratio {:.2}", large / small);
    }
}
