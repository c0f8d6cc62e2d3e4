//! Fiduccia–Mattheyses (FM) boundary refinement for bisections.
//!
//! Given a 2-way assignment, FM repeatedly moves the vertex with the highest
//! gain (cut reduction) to the other side, locks it, and at the end of a
//! pass rolls back to the best prefix of moves. A pass ends when its heap
//! empties or after [`STALL_MOVES`] moves in a row that do not improve the
//! best prefix. Moves that would break the balance caps are skipped; when
//! the incoming assignment is already unbalanced, moves that reduce
//! imbalance are allowed even with negative gain, which lets FM repair
//! infeasible initial partitions.
//!
//! A refine call sweeps the graph once to build the gain table and each
//! vertex's count of cross-cut neighbors. Every pass starts from a copy of
//! that table and seeds its heap from the boundary (a nonzero cross count).
//! After an accepted pass, the kept prefix is replayed onto the committed
//! table, which touches only the moved vertices' rows. The table therefore
//! stays equal to a rebuild from scratch, and each further pass costs
//! nothing beyond its own moves and an O(n) reset.

use crate::balance::BalanceTracker;
use crate::graph::{EdgeWeight, Graph};
use crate::heap::{IdCursor, VertexHeap};
use crate::workspace::RefineScratch;

/// Configuration for FM refinement.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RefineConfig {
    /// Maximum number of passes.
    pub(crate) max_passes: usize,
    /// Target fraction of weight on side 0.
    pub(crate) frac: f64,
    /// Allowed relative imbalance.
    pub(crate) tolerance: f64,
}

impl Default for RefineConfig {
    fn default() -> Self {
        RefineConfig {
            max_passes: 8,
            frac: 0.5,
            tolerance: 0.05,
        }
    }
}

/// Consecutive applied moves that do not improve a pass's best prefix after
/// which FM ends the pass early, as METIS does: a long tail of moves past
/// the best prefix is almost never kept, yet without a budget every pass
/// moves nearly every boundary vertex and then rolls most of them back.
///
/// A pass applies each vertex at most once, so the budget can only end a
/// pass that has already applied more than `STALL_MOVES` moves. Refinement
/// is therefore byte-identical to running every pass to exhaustion on any
/// graph with at most `STALL_MOVES` vertices — every coarsest level at the
/// default `coarsen_to` of 64 — and on any pass whose heap empties first,
/// such as a feasible start on an edgeless graph, which has no boundary.
pub(crate) const STALL_MOVES: usize = 64;

/// Runs FM refinement on `side` in place with caller-provided scratch — the
/// allocation-free hot path — and returns the refined cut. The cut is never
/// worse than the input's (unless the input was imbalance-infeasible, in
/// which case feasibility is prioritized). `known_cut` lets callers that
/// already know the exact cut of `side` (the uncoarsening loop: contraction
/// and projection both preserve cut values) skip the O(E) recomputation.
///
/// A feasible start that already cuts [`Graph::cut_floor`] returns at once,
/// before the gain sweep: a pass from a feasible start is accepted only if
/// its best cut is below the start's, and no cut is below the floor, so
/// every pass would be rejected and `side` would come back unchanged.
// analyze:hot-path -- warm refinement core: uncoarsening passes must not allocate
pub(crate) fn refine_in_place(
    graph: &Graph,
    side: &mut [u8],
    config: &RefineConfig,
    known_cut: Option<EdgeWeight>,
    ws: &mut RefineScratch,
) -> EdgeWeight {
    let mut cut = known_cut.unwrap_or_else(|| graph.cut(side));
    debug_assert_eq!(cut, graph.cut(side), "caller-supplied cut must be exact");
    if cut == graph.cut_floor()
        && BalanceTracker::new(graph, side, config.frac, config.tolerance).is_feasible()
    {
        return cut;
    }

    build_gains(graph, side, ws);
    for _ in 0..config.max_passes {
        let pass = fm_pass(graph, side, cut, config, ws);
        if !pass.improved {
            break;
        }
        commit_prefix(graph, side, pass.best_len, ws);
        cut = pass.best_cut;
    }

    debug_assert_eq!(cut, graph.cut(side), "cut bookkeeping must match");
    cut
}

/// Builds the committed gain table of `side` into `ws.gain` — each vertex's
/// cut reduction if it switched sides — and into `ws.ext` its count of
/// neighbors across the cut (nonzero exactly on the boundary). This is the
/// only O(E) sweep of a refine call.
fn build_gains(graph: &Graph, side: &[u8], ws: &mut RefineScratch) {
    let n = graph.vertex_count();
    ws.gain.clear();
    ws.gain.resize(n, 0);
    ws.ext.clear();
    ws.ext.resize(n, 0);
    for v in 0..n {
        let (mut g, mut x) = (0, 0);
        for (u, w) in graph.neighbors(v) {
            if side[u] == side[v] {
                g -= w;
            } else {
                g += w;
                x += 1;
            }
        }
        ws.gain[v] = g;
        ws.ext[v] = x;
    }
    ws.gain_scans += graph.adjncy().len() as u64;
}

/// Applies an accepted pass's kept prefix `ws.log[..len]` to `side`, in
/// move order, and keeps `ws.gain` / `ws.ext` exact for the new side: each
/// flip changes the cut status of the moved vertex's edges only, so its
/// neighbors' gains move by ±2w and their cross counts by ±1, while its
/// own gain negates and its cross count becomes the complement of its
/// degree. Gains are integers, so the carried table equals a rebuild.
fn commit_prefix(graph: &Graph, side: &mut [u8], len: usize, ws: &mut RefineScratch) {
    for &v in &ws.log[..len] {
        side[v] = 1 - side[v];
        for (u, w) in graph.neighbors(v) {
            if side[u] == side[v] {
                ws.gain[u] -= 2 * w;
                ws.ext[u] -= 1;
            } else {
                ws.gain[u] += 2 * w;
                ws.ext[u] += 1;
            }
        }
        ws.gain[v] = -ws.gain[v];
        ws.ext[v] = graph.degree(v) - ws.ext[v];
    }
}

/// How one FM pass ended: its move log is left in `ws.log`, of which the
/// first `best_len` moves form the best prefix, with cut `best_cut`.
/// `improved` says whether that prefix beats the pass's start and is kept.
struct PassOutcome {
    best_len: usize,
    best_cut: EdgeWeight,
    improved: bool,
}

/// One FM pass from `side` (whose exact cut is `start_cut`), tracking the
/// best prefix as it moves and stopping after [`STALL_MOVES`] applied moves
/// that do not improve it. `ws.gain` / `ws.ext` must hold the committed
/// gains of `side` (see [`build_gains`]); the pass moves a copy of them,
/// and leaves `side` and the committed tables untouched.
fn fm_pass(
    graph: &Graph,
    side: &[u8],
    start_cut: EdgeWeight,
    config: &RefineConfig,
    ws: &mut RefineScratch,
) -> PassOutcome {
    let n = graph.vertex_count();
    ws.work_gain.clear();
    ws.work_gain.extend_from_slice(&ws.gain);
    let gain = &mut ws.work_gain;
    let ext = &ws.ext;
    let mut tracker = BalanceTracker::new(graph, side, config.frac, config.tolerance);
    let start_feasible = tracker.is_feasible();
    let start_imb = tracker.imbalance();
    let locked = &mut ws.locked;
    locked.clear();
    locked.resize(n, false);
    // Candidate heap. With a feasible start only *boundary* vertices (an
    // edge to the other side) can improve the cut, and interior vertices
    // enter the heap when a neighbor moves — the classic FM seeding,
    // which keeps passes cheap on large graphs. An infeasible start
    // needs arbitrary moves for balance repair, so every vertex is a
    // candidate: those with an edge are seeded, while the isolated ones,
    // whose gain is 0 for the whole pass, are walked in id order by the
    // cursor, exactly where a heap holding them would pop them.
    let seed_all = !start_feasible;
    let mut heap = VertexHeap::new(&mut ws.heap, &mut ws.heap_pos, n);
    heap.seed(
        (0..n)
            .filter(|&v| (if seed_all { graph.degree(v) } else { ext[v] }) > 0)
            .map(|v| (gain[v], v)),
    );
    let mut isolated = IdCursor::new(if seed_all { n } else { 0 });

    // Move log for rollback: the moved vertices, in order.
    let log = &mut ws.log;
    log.clear();
    let work_side = &mut ws.work_side;
    work_side.clear();
    work_side.extend_from_slice(side);
    let mut work_cut = start_cut;

    // The best prefix so far: the smallest cut among feasible states (or,
    // if the pass started infeasible, the most balanced state, then the
    // smallest cut), the earliest one on ties.
    let mut best_len = 0;
    let mut best_key = (f64::INFINITY, EdgeWeight::MAX);
    let mut stall = 0;

    while let Some(v) = isolated.take(&mut heap, |_, u| graph.degree(u) > 0) {
        let w = graph.vertex_weight_slice(v);
        let from = work_side[v];
        // FM balance criterion: a move is allowed if the destination stays
        // within its cap, OR it comes from the (weakly) heavier side.
        // The latter permits temporary imbalance mid-pass, which is what
        // lets FM discover swaps; only the chosen prefix must be feasible.
        let feasible_move = tracker.move_keeps_feasible_slice(w, from);
        let from_heavier = tracker.side_load(from) >= tracker.side_load(1 - from) - 1e-9;
        if !feasible_move && !from_heavier {
            continue;
        }
        // Apply the move.
        locked[v] = true;
        tracker.apply_move_slice(w, from);
        work_side[v] = 1 - from;
        work_cut -= gain[v];
        // Update neighbor gains.
        for (u, wt) in graph.neighbors(v) {
            if locked[u] {
                continue;
            }
            if work_side[u] == work_side[v] {
                // u was across, now same side: moving u would re-cut this edge.
                gain[u] -= 2 * wt;
            } else {
                gain[u] += 2 * wt;
            }
            heap.push_or_update(gain[u], u);
        }
        gain[v] = -gain[v];
        log.push(v);

        let imb = tracker.imbalance();
        let key = if start_feasible {
            (imb <= config.tolerance + 1e-9).then_some((0.0, work_cut))
        } else {
            Some((imb, work_cut))
        };
        match key {
            Some(key) if key < best_key => {
                best_key = key;
                best_len = log.len();
                stall = 0;
            }
            _ => {
                stall += 1;
                if stall == STALL_MOVES {
                    break;
                }
            }
        }
    }

    ws.heap_ops += heap.ops();

    let (best_imb, best_cut) = best_key;
    let improved = best_len > 0
        && if start_feasible {
            best_cut < start_cut
        } else {
            // Accept if balance improved, or same balance with less cut.
            best_imb < start_imb - 1e-12 || (best_imb <= start_imb + 1e-12 && best_cut < start_cut)
        };
    PassOutcome {
        best_len,
        best_cut,
        improved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, VertexWeight};
    use goldilocks_rng::SplitMix64;
    use proptest::prelude::*;

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

    /// Refines a copy of `side` with a cold scratch: `(side, cut)`.
    fn refine(graph: &Graph, side: &[u8], config: &RefineConfig) -> (Vec<u8>, EdgeWeight) {
        let mut side = side.to_vec();
        let cut = refine_in_place(
            graph,
            &mut side,
            config,
            None,
            &mut RefineScratch::default(),
        );
        (side, cut)
    }

    #[test]
    fn repairs_a_bad_bisection() {
        let g = two_cliques();
        // Start with a deliberately bad split mixing the cliques.
        let bad = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let (_, cut) = refine(&g, &bad, &RefineConfig::default());
        assert!(g.cut(&bad) > 1);
        assert_eq!(cut, 1, "FM should find the bridge-only cut");
    }

    #[test]
    fn never_worsens_cut_of_feasible_input() {
        let g = two_cliques();
        let good = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let (_, cut) = refine(&g, &good, &RefineConfig::default());
        assert!(cut <= g.cut(&good));
        assert_eq!(cut, 1);
    }

    #[test]
    fn keeps_balance() {
        let g = two_cliques();
        let bad = vec![0, 1, 0, 1, 0, 1, 0, 1];
        let cfg = RefineConfig {
            tolerance: 0.0,
            ..RefineConfig::default()
        };
        let (side, _) = refine(&g, &bad, &cfg);
        let zeros = side.iter().filter(|s| **s == 0).count();
        assert_eq!(zeros, 4, "tolerance 0 requires a perfect split");
    }

    #[test]
    fn repairs_infeasible_balance() {
        // Everything on side 0; refinement must move weight to side 1 even
        // though every move increases the (zero) cut.
        let mut b = GraphBuilder::new(1);
        for _ in 0..8 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        for v in 0..7 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build().unwrap();
        let all0 = vec![0u8; 8];
        let (side, _) = refine(&g, &all0, &RefineConfig::default());
        let t = BalanceTracker::new(&g, &side, 0.5, 0.05);
        assert!(
            t.imbalance() < 1.0,
            "imbalance should improve from 1.0, got {}",
            t.imbalance()
        );
    }

    #[test]
    fn negative_edges_pushed_across() {
        // Two pairs with strong affinity; a negative edge between vertices 0
        // and 2 should end up across the cut.
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        b.add_edge(0, 1, 10);
        b.add_edge(2, 3, 10);
        b.add_edge(0, 2, -8);
        b.add_edge(1, 3, 2);
        let g = b.build().unwrap();
        // Start from the *wrong* grouping that keeps 0 and 2 together.
        let bad = vec![0, 1, 0, 1];
        let (side, cut) = refine(&g, &bad, &RefineConfig::default());
        assert_ne!(side[0], side[2], "anti-affinity pair must split");
        assert_eq!(side[0], side[1]);
        assert_eq!(side[2], side[3]);
        assert_eq!(cut, -8 + 2);
    }

    /// Per-vertex gain and cross-cut neighbor count of `side`, rebuilt from
    /// scratch into `gain` / `ext`: the oracle for the committed tables that
    /// `refine_in_place` builds once and carries across passes.
    fn gains_into(graph: &Graph, side: &[u8], gain: &mut Vec<EdgeWeight>, ext: &mut Vec<usize>) {
        let n = graph.vertex_count();
        gain.clear();
        gain.resize(n, 0);
        ext.clear();
        ext.resize(n, 0);
        for v in 0..n {
            for (u, w) in graph.neighbors(v) {
                if side[u] == side[v] {
                    gain[v] -= w;
                } else {
                    gain[v] += w;
                    ext[v] += 1;
                }
            }
        }
    }

    /// The refine loop as it was before gains were carried: every pass
    /// rebuilds the gain table from scratch. Kept as the reference that
    /// carrying must reproduce at every size.
    fn refine_recompute(
        graph: &Graph,
        side: &[u8],
        config: &RefineConfig,
    ) -> (Vec<u8>, EdgeWeight) {
        let mut side = side.to_vec();
        let mut cut = graph.cut(&side);
        let mut ws = RefineScratch::default();
        for _ in 0..config.max_passes {
            gains_into(graph, &side, &mut ws.gain, &mut ws.ext);
            let pass = fm_pass(graph, &side, cut, config, &mut ws);
            if !pass.improved {
                break;
            }
            for &v in &ws.log[..pass.best_len] {
                side[v] = 1 - side[v];
            }
            cut = pass.best_cut;
        }
        (side, cut)
    }

    /// The pass loop as it was before the stall budget: every pass runs
    /// until its heap empties, then a post-pass scan of the move log picks
    /// the best prefix. Kept as the reference the budgeted loop must match
    /// on graphs with at most [`STALL_MOVES`] vertices.
    fn refine_unbudgeted(
        graph: &Graph,
        side: &[u8],
        config: &RefineConfig,
    ) -> (Vec<u8>, EdgeWeight) {
        let n = graph.vertex_count();
        let mut side = side.to_vec();
        let mut cut = graph.cut(&side);
        let (mut gain, mut ext) = (Vec::new(), Vec::new());
        let (mut heap_buf, mut heap_pos) = (Vec::new(), Vec::new());
        for _ in 0..config.max_passes {
            let start_cut = cut;
            gains_into(graph, &side, &mut gain, &mut ext);
            let mut tracker = BalanceTracker::new(graph, &side, config.frac, config.tolerance);
            let start_feasible = tracker.is_feasible();
            let start_imb = tracker.imbalance();
            let mut locked = vec![false; n];
            let mut heap = VertexHeap::new(&mut heap_buf, &mut heap_pos, n);
            for v in (0..n).filter(|&v| !start_feasible || ext[v] > 0) {
                heap.push_or_update(gain[v], v);
            }
            let mut log: Vec<(usize, EdgeWeight, f64)> = Vec::new();
            let mut work_side = side.clone();
            let mut work_cut = cut;
            while let Some(v) = heap.pop() {
                let w = graph.vertex_weight_slice(v);
                let from = work_side[v];
                let feasible_move = tracker.move_keeps_feasible_slice(w, from);
                let from_heavier = tracker.side_load(from) >= tracker.side_load(1 - from) - 1e-9;
                if !feasible_move && !from_heavier {
                    continue;
                }
                locked[v] = true;
                tracker.apply_move_slice(w, from);
                work_side[v] = 1 - from;
                work_cut -= gain[v];
                for (u, wt) in graph.neighbors(v) {
                    if locked[u] {
                        continue;
                    }
                    if work_side[u] == work_side[v] {
                        gain[u] -= 2 * wt;
                    } else {
                        gain[u] += 2 * wt;
                    }
                    heap.push_or_update(gain[u], u);
                }
                gain[v] = -gain[v];
                log.push((v, work_cut, tracker.imbalance()));
            }
            let mut best_idx: Option<usize> = None;
            let mut best_key = (f64::INFINITY, EdgeWeight::MAX);
            for (i, &(_, c, imb)) in log.iter().enumerate() {
                let feasible = imb <= config.tolerance + 1e-9;
                let key = if start_feasible {
                    if !feasible {
                        continue;
                    }
                    (0.0, c)
                } else {
                    (imb, c)
                };
                if key < best_key {
                    best_key = key;
                    best_idx = Some(i);
                }
            }
            let accepted = best_idx.filter(|&i| {
                let (_, c, imb) = log[i];
                if start_feasible {
                    c < start_cut
                } else {
                    imb < start_imb - 1e-12 || (imb <= start_imb + 1e-12 && c < start_cut)
                }
            });
            let Some(best) = accepted else { break };
            for &(v, _, _) in &log[..=best] {
                side[v] = 1 - side[v];
            }
            cut = log[best].1;
        }
        (side, cut)
    }

    /// [`fm_pass`] as it was before the isolated-vertex cursor: an
    /// infeasible start seeds every vertex into the heap, and the heap alone
    /// picks each move. Kept as the reference the cursor must match byte
    /// for byte.
    fn fm_pass_heap_only(
        graph: &Graph,
        side: &[u8],
        start_cut: EdgeWeight,
        config: &RefineConfig,
        ws: &mut RefineScratch,
    ) -> PassOutcome {
        let n = graph.vertex_count();
        let mut gain = ws.gain.clone();
        let mut tracker = BalanceTracker::new(graph, side, config.frac, config.tolerance);
        let start_feasible = tracker.is_feasible();
        let start_imb = tracker.imbalance();
        let mut locked = vec![false; n];
        let mut heap = VertexHeap::new(&mut ws.heap, &mut ws.heap_pos, n);
        heap.seed(
            (0..n)
                .filter(|&v| !start_feasible || ws.ext[v] > 0)
                .map(|v| (gain[v], v)),
        );
        ws.log.clear();
        let mut work_side = side.to_vec();
        let mut work_cut = start_cut;
        let mut best_len = 0;
        let mut best_key = (f64::INFINITY, EdgeWeight::MAX);
        let mut stall = 0;
        while let Some(v) = heap.pop() {
            let w = graph.vertex_weight_slice(v);
            let from = work_side[v];
            let feasible_move = tracker.move_keeps_feasible_slice(w, from);
            let from_heavier = tracker.side_load(from) >= tracker.side_load(1 - from) - 1e-9;
            if !feasible_move && !from_heavier {
                continue;
            }
            locked[v] = true;
            tracker.apply_move_slice(w, from);
            work_side[v] = 1 - from;
            work_cut -= gain[v];
            for (u, wt) in graph.neighbors(v) {
                if locked[u] {
                    continue;
                }
                if work_side[u] == work_side[v] {
                    gain[u] -= 2 * wt;
                } else {
                    gain[u] += 2 * wt;
                }
                heap.push_or_update(gain[u], u);
            }
            gain[v] = -gain[v];
            ws.log.push(v);
            let imb = tracker.imbalance();
            let key = if start_feasible {
                (imb <= config.tolerance + 1e-9).then_some((0.0, work_cut))
            } else {
                Some((imb, work_cut))
            };
            match key {
                Some(key) if key < best_key => {
                    best_key = key;
                    best_len = ws.log.len();
                    stall = 0;
                }
                _ => {
                    stall += 1;
                    if stall == STALL_MOVES {
                        break;
                    }
                }
            }
        }
        let (best_imb, best_cut) = best_key;
        let improved = best_len > 0
            && if start_feasible {
                best_cut < start_cut
            } else {
                best_imb < start_imb - 1e-12
                    || (best_imb <= start_imb + 1e-12 && best_cut < start_cut)
            };
        PassOutcome {
            best_len,
            best_cut,
            improved,
        }
    }

    /// The refine loop of [`refine_in_place`] over the heap-only pass.
    fn refine_heap_only(
        graph: &Graph,
        side: &[u8],
        config: &RefineConfig,
    ) -> (Vec<u8>, EdgeWeight) {
        let mut side = side.to_vec();
        let mut cut = graph.cut(&side);
        let mut ws = RefineScratch::default();
        build_gains(graph, &side, &mut ws);
        for _ in 0..config.max_passes {
            let pass = fm_pass_heap_only(graph, &side, cut, config, &mut ws);
            if !pass.improved {
                break;
            }
            commit_prefix(graph, &mut side, pass.best_len, &mut ws);
            cut = pass.best_cut;
        }
        (side, cut)
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Up to `STALL_MOVES` vertices the stall budget can never end a
        /// pass early, so the budgeted loop reproduces the unbudgeted one
        /// exactly: same side bytes and same cut — on
        /// feasible and infeasible starts, negative edges, and 1–3
        /// weight dimensions.
        #[test]
        fn budget_is_byte_identical_up_to_stall_moves(
            (dims, weights, edges, side) in (2..=STALL_MOVES, 1usize..=3).prop_flat_map(|(n, dims)| (
                Just(dims),
                proptest::collection::vec(proptest::collection::vec(0.1f64..5.0, dims), n),
                proptest::collection::vec((0..n, 0..n, -20i64..100), 0..n * 4),
                proptest::collection::vec(0u8..2, n),
            )),
            frac in 0.2f64..0.8,
            tolerance in 0.0f64..0.2,
            max_passes in 1usize..10,
        ) {
            let g = graph_from(dims, &weights, &edges);
            let cfg = RefineConfig { max_passes, frac, tolerance };
            prop_assert_eq!(refine(&g, &side, &cfg), refine_unbudgeted(&g, &side, &cfg));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Carrying gains across passes changes no move: at every size —
        /// well past `STALL_MOVES`, where the budget ends passes early —
        /// `refine_in_place` matches the per-pass-rebuild loop in side
        /// bytes and cut, on feasible and infeasible starts, negative edges
        /// and 1–3 weight dimensions. The tables it leaves behind equal a
        /// rebuild for the final side.
        #[test]
        fn carried_gains_match_per_pass_recompute(
            (dims, weights, edges, side) in (2usize..=300, 1usize..=3).prop_flat_map(|(n, dims)| (
                Just(dims),
                proptest::collection::vec(proptest::collection::vec(0.1f64..5.0, dims), n),
                proptest::collection::vec((0..n, 0..n, -20i64..100), 0..n * 4),
                proptest::collection::vec(0u8..2, n),
            )),
            frac in 0.2f64..0.8,
            tolerance in 0.0f64..0.2,
            max_passes in 1usize..10,
        ) {
            let g = graph_from(dims, &weights, &edges);
            let cfg = RefineConfig { max_passes, frac, tolerance };
            let mut carried = side.clone();
            let mut ws = RefineScratch::default();
            let cut = refine_in_place(&g, &mut carried, &cfg, None, &mut ws);
            prop_assert_eq!((carried.clone(), cut), refine_recompute(&g, &side, &cfg));
            let (mut gain, mut ext) = (Vec::new(), Vec::new());
            gains_into(&g, &carried, &mut gain, &mut ext);
            prop_assert_eq!(&ws.gain, &gain);
            prop_assert_eq!(&ws.ext, &ext);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The isolated-vertex cursor changes no move: `refine_in_place`
        /// matches the heap-only pass loop in side bytes and cut on edgeless
        /// graphs, graphs whose edges leave isolated vertices (sparse random
        /// edges, or edges only among the first half), mixed-sign weights,
        /// feasible and infeasible starts (one side, a prefix, or random),
        /// sizes past `STALL_MOVES`, and 1–3 weight dimensions.
        #[test]
        fn isolated_cursor_matches_the_heap_only_pass(
            (dims, weights, edges, side) in (2usize..=200, 1usize..=3).prop_flat_map(|(n, dims)| (
                Just(dims),
                proptest::collection::vec(
                    proptest::collection::vec(prop_oneof![Just(0.0), 0.1f64..5.0], dims),
                    n,
                ),
                prop_oneof![
                    Just(Vec::new()),
                    proptest::collection::vec((0..n, 0..n, -20i64..100), 0..n),
                    proptest::collection::vec((0..n / 2, 0..n / 2, -5i64..40), 0..n * 2),
                ],
                prop_oneof![
                    proptest::collection::vec(0u8..2, n),
                    (0u8..2).prop_map(move |s| vec![s; n]),
                    (0..=n).prop_map(move |k| (0..n).map(|v| u8::from(v >= k)).collect()),
                ],
            )),
            frac in 0.2f64..0.8,
            tolerance in 0.0f64..0.2,
            max_passes in 1usize..10,
        ) {
            let g = graph_from(dims, &weights, &edges);
            let cfg = RefineConfig { max_passes, frac, tolerance };
            prop_assert_eq!(refine(&g, &side, &cfg), refine_heap_only(&g, &side, &cfg));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Refinement never increases the cut of a feasible input, and the
        /// cut it reports is exact. The graph is a spanning path plus
        /// random positive edges; the start alternates sides, then swaps
        /// random pairs.
        #[test]
        fn refine_never_worsens(
            (weights, edges, swaps) in (2usize..40).prop_flat_map(|n| (
                proptest::collection::vec(0.1f64..5.0, n),
                proptest::collection::vec((0..n, 0..n, 1i64..100), 0..n * 3),
                proptest::collection::vec((0..n, 0..n), n / 4),
            )),
        ) {
            let n = weights.len();
            let mut edges = edges;
            edges.extend((0..n - 1).map(|v| (v, v + 1, 1)));
            let weights: Vec<Vec<f64>> = weights.into_iter().map(|w| vec![w]).collect();
            let g = graph_from(1, &weights, &edges);
            let mut side: Vec<u8> = (0..n).map(|v| (v % 2) as u8).collect();
            for (i, j) in swaps {
                side.swap(i, j);
            }
            let cfg = RefineConfig { tolerance: 0.3, ..RefineConfig::default() };
            let before = g.cut(&side);
            let feasible_before = BalanceTracker::new(&g, &side, 0.5, 0.3).is_feasible();
            let (refined, cut) = refine(&g, &side, &cfg);
            prop_assert_eq!(cut, g.cut(&refined));
            if feasible_before {
                prop_assert!(cut <= before, "cut {} > {}", cut, before);
            }
        }
    }

    /// A 20k-vertex random graph with 80k edges and an alternating start:
    /// far larger than the stall budget, and refined over several passes.
    fn large_random_start() -> (Graph, Vec<u8>) {
        const N: usize = 20_000;
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut next = move |m: usize| rng.range(0..m);
        let weights: Vec<Vec<f64>> = (0..N).map(|v| vec![1.0 + (v % 3) as f64]).collect();
        let edges: Vec<(usize, usize, EdgeWeight)> = (0..N * 4)
            .map(|_| (next(N), next(N), 1 + next(50) as EdgeWeight))
            .collect();
        let side = (0..N).map(|v| (v % 2) as u8).collect();
        (graph_from(1, &weights, &edges), side)
    }

    /// Scaling lock, counted in moves rather than seconds: on a graph far
    /// larger than the budget, no pass applies more than `STALL_MOVES`
    /// moves beyond its best prefix. Unbudgeted FM moves nearly every
    /// vertex of a random graph in every pass, so its logs run to ~n.
    #[test]
    fn pass_log_stays_within_budget_of_best_prefix() {
        let (g, mut side) = large_random_start();
        let cfg = RefineConfig::default();
        let mut cut = g.cut(&side);
        let mut ws = RefineScratch::default();
        build_gains(&g, &side, &mut ws);
        let mut passes = 0;
        loop {
            let pass = fm_pass(&g, &side, cut, &cfg, &mut ws);
            assert!(
                ws.log.len() <= pass.best_len + STALL_MOVES,
                "pass {passes} applied {} moves for a best prefix of {}",
                ws.log.len(),
                pass.best_len
            );
            passes += 1;
            if !pass.improved || passes == cfg.max_passes {
                break;
            }
            commit_prefix(&g, &mut side, pass.best_len, &mut ws);
            cut = pass.best_cut;
        }
        assert!(passes >= 2, "the lock must see more than one pass");
    }

    /// Scaling lock, counted in adjacency reads: a refine call that runs
    /// several passes sweeps the graph for gains exactly once. Rebuilding
    /// the table at the start of every pass reads `passes × |adjncy|`.
    #[test]
    fn gains_are_built_once_per_refine_call() {
        let (g, side) = large_random_start();
        let cfg = RefineConfig::default();
        let mut ws = RefineScratch::default();
        let mut refined = side.clone();
        refine_in_place(&g, &mut refined, &cfg, None, &mut ws);
        // A second pass was accepted: stopping after one pass ends elsewhere.
        let one_pass = RefineConfig {
            max_passes: 1,
            ..cfg
        };
        assert_ne!(refine(&g, &side, &one_pass).0, refined);
        assert_eq!(
            ws.gain_scans,
            g.adjncy().len() as u64,
            "gain builds read {:.2} × |adjncy|",
            ws.gain_scans as f64 / g.adjncy().len() as f64
        );
    }

    /// A feasible start at the cut floor comes back unchanged, before the
    /// gain sweep: the two cliques split along their anti-affinity edges
    /// (the only cut edges, so the cut is the floor), and an edgeless
    /// graph split in half.
    #[test]
    fn feasible_start_at_the_floor_returns_unchanged() {
        let mut b = GraphBuilder::new(1);
        for _ in 0..8 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        for i in 0..4 {
            for j in i + 1..4 {
                b.add_edge(i, j, 10);
                b.add_edge(i + 4, j + 4, 10);
            }
            b.add_edge(i, i + 4, -3);
        }
        let anti = b.build().unwrap();
        let split = vec![0, 0, 0, 0, 1, 1, 1, 1];
        assert_eq!(anti.cut(&split), anti.cut_floor());
        assert_eq!(anti.cut_floor(), -12);

        let edgeless = graph_from(1, &vec![vec![1.0]; 10], &[]);
        let half = (0..10).map(|v| u8::from(v >= 5)).collect::<Vec<_>>();
        for (g, start) in [(&anti, split), (&edgeless, half)] {
            let mut side = start.clone();
            let mut ws = RefineScratch::default();
            let cut = refine_in_place(g, &mut side, &RefineConfig::default(), None, &mut ws);
            assert_eq!(side, start);
            assert_eq!(cut, g.cut_floor());
            assert_eq!(ws.gain_scans, 0, "returned before the gain sweep");
        }
    }

    /// The floor return needs a feasible start: an edgeless graph with
    /// every vertex on one side cuts the floor (0) but is repaired.
    #[test]
    fn infeasible_start_at_the_floor_is_still_repaired() {
        let g = graph_from(1, &vec![vec![1.0]; 10], &[]);
        let (side, cut) = refine(&g, &[0; 10], &RefineConfig::default());
        assert_eq!(cut, 0);
        assert!(BalanceTracker::new(&g, &side, 0.5, 0.05).is_feasible());
    }

    #[test]
    fn reported_cut_matches_graph_cut() {
        let g = two_cliques();
        for start in [vec![0, 1, 1, 0, 1, 0, 0, 1], vec![1, 1, 0, 0, 0, 0, 1, 1]] {
            let (side, cut) = refine(&g, &start, &RefineConfig::default());
            assert_eq!(cut, g.cut(&side));
        }
    }
}
