//! Multi-constraint balance bookkeeping for bisections.
//!
//! A bisection aims to put a fraction `frac` of every vertex-weight dimension
//! into side 0 (Eq. 3 of the paper asks for near-uniform utilization across
//! parts). `tolerance` is the allowed relative overshoot per side and
//! dimension: a side is feasible while its weight in every dimension stays
//! below `target * (1 + tolerance)`.

use crate::graph::{Graph, VertexWeight};

/// Balance targets and live side-weight accounting for a 2-way partition.
///
/// Derived per-dimension quantities (side targets and feasibility caps) are
/// products of immutable inputs, so they are computed once at construction
/// — with the same association order the per-call arithmetic used, keeping
/// every value bit-identical — instead of being re-multiplied on each of
/// the hundreds of thousands of feasibility checks an FM pass performs.
/// The per-side relative loads are cached between moves (balance-rejected
/// FM pops re-query them without changing any side weight).
#[derive(Clone, Debug)]
pub(crate) struct BalanceTracker {
    /// Total weight of the graph per dimension.
    total: VertexWeight,
    /// Allowed relative overshoot (e.g. 0.05 = 5 %).
    tolerance: f64,
    /// Current weight on side 0.
    side0: VertexWeight,
    /// Current weight on side 1.
    side1: VertexWeight,
    /// Derived per-dimension constants, one flat buffer to keep tracker
    /// construction to a single extra allocation:
    /// `[targets0 | targets1 | caps0 | caps1]`, each `dims` long, where
    /// `targetsS[d] = total[d] * fracS` and `capsS[d] = targetsS[d] *
    /// (1 + tolerance)`.
    derived: Vec<f64>,
    /// Lazily cached `(side_load(0), side_load(1))`; invalidated by moves.
    loads: std::cell::Cell<Option<(f64, f64)>>,
}

impl BalanceTracker {
    /// Creates a tracker for bisecting `graph` with side 0 receiving `frac`
    /// of the total weight, given an initial assignment `side`.
    // lint:allow(zero-alloc-hot-path) -- allocation boundary: tracker construction is
    // once-per-pass and builds one O(dims) buffer; the per-move operations stay allocation-free
    pub(crate) fn new(graph: &Graph, side: &[u8], frac: f64, tolerance: f64) -> Self {
        let dims = graph.dims();
        let mut side0 = VertexWeight::zeros(dims);
        let mut side1 = VertexWeight::zeros(dims);
        add_side_weights(graph, side, &mut side0.0, &mut side1.0);
        let total = graph.total_vertex_weight();
        let mut derived = Vec::with_capacity(4 * dims);
        side_targets_into(&total.0, frac, &mut derived);
        for s in 0..2 {
            for d in 0..dims {
                derived.push(derived[s * dims + d] * (1.0 + tolerance));
            }
        }
        BalanceTracker {
            total,
            tolerance,
            side0,
            side1,
            derived,
            loads: std::cell::Cell::new(None),
        }
    }

    /// Target weight of side `s` in dimension `d` (`total * frac_s`).
    #[inline]
    fn target(&self, s: u8, d: usize) -> f64 {
        self.derived[s as usize * self.total.dims() + d]
    }

    /// Upper bound on side `s`'s weight in dimension `d`.
    #[inline]
    fn cap(&self, s: u8, d: usize) -> f64 {
        self.derived[(2 + s as usize) * self.total.dims() + d]
    }

    /// Current weight of side `s`.
    pub(crate) fn side_weight(&self, s: u8) -> &VertexWeight {
        if s == 0 {
            &self.side0
        } else {
            &self.side1
        }
    }

    /// Whether moving vertex weight `w` (raw components, as
    /// [`crate::Graph::vertex_weight_slice`] returns them) from side `from`
    /// to the other side keeps the destination side within its cap in every
    /// dimension.
    pub(crate) fn move_keeps_feasible_slice(&self, w: &[f64], from: u8) -> bool {
        let to = 1 - from;
        let dest = self.side_weight(to);
        w.iter()
            .enumerate()
            .all(|(d, c)| dest.component(d) + c <= self.cap(to, d))
    }

    /// Applies a move of weight `w` (raw components) from side `from` to
    /// the other side.
    pub(crate) fn apply_move_slice(&mut self, w: &[f64], from: u8) {
        let (sub, add) = if from == 0 {
            (&mut self.side0, &mut self.side1)
        } else {
            (&mut self.side1, &mut self.side0)
        };
        for (d, c) in w.iter().enumerate() {
            sub.0[d] -= c;
            add.0[d] += c;
        }
        self.loads.set(None);
    }

    /// Maximum relative imbalance across both sides and all dimensions:
    /// `max(side_weight / target) - 1`, clamped at 0 from below.
    pub(crate) fn imbalance(&self) -> f64 {
        imbalance_of(
            &self.total.0,
            &self.side0.0,
            &self.side1.0,
            &self.derived[..2 * self.total.dims()],
        )
    }

    /// Whether the current assignment is within tolerance.
    pub(crate) fn is_feasible(&self) -> bool {
        within_tolerance(self.imbalance(), self.tolerance)
    }

    /// Relative load of side `s`: the worst per-dimension ratio of its
    /// current weight to its target weight. 1.0 = exactly on target.
    ///
    /// Both sides' loads are computed together and cached until the next
    /// move; FM pops that get balance-rejected query them repeatedly
    /// without moving anything.
    pub(crate) fn side_load(&self, s: u8) -> f64 {
        let (l0, l1) = match self.loads.get() {
            Some(l) => l,
            None => {
                let l = (self.compute_load(0), self.compute_load(1));
                self.loads.set(Some(l));
                l
            }
        };
        if s == 0 {
            l0
        } else {
            l1
        }
    }

    /// The uncached [`BalanceTracker::side_load`] computation.
    fn compute_load(&self, s: u8) -> f64 {
        let side = self.side_weight(s);
        let mut worst: f64 = 0.0;
        for d in 0..self.total.dims() {
            let t = self.target(s, d);
            if t > 0.0 {
                worst = worst.max(side.component(d) / t);
            }
        }
        worst
    }
}

/// Adds each vertex's weight to its side's sum, in vertex order: side 0's
/// into `sum0`, side 1's into `sum1` (each `dims` long). Returns how many
/// vertices are on side 1. [`BalanceTracker::new`] and the growing trial
/// loop sum sides with this one loop, so their sums are bit-identical.
pub(crate) fn add_side_weights(
    graph: &Graph,
    side: &[u8],
    sum0: &mut [f64],
    sum1: &mut [f64],
) -> usize {
    let mut ones = 0;
    for (v, sv) in side.iter().enumerate().take(graph.vertex_count()) {
        let dst = if *sv == 0 {
            &mut *sum0
        } else {
            ones += 1;
            &mut *sum1
        };
        for (d, c) in graph.vertex_weight_slice(v).iter().enumerate() {
            dst[d] += c;
        }
    }
    ones
}

/// Writes the two sides' per-dimension weight targets into `out`:
/// `[total * frac | total * (1 - frac)]`.
pub(crate) fn side_targets_into(total: &[f64], frac: f64, out: &mut Vec<f64>) {
    out.clear();
    for f in [frac, 1.0 - frac] {
        out.extend(total.iter().map(|t| t * f));
    }
}

/// Maximum relative imbalance across both sides and all dimensions with a
/// positive total: `max(side_weight / target) - 1`, clamped at 0 from
/// below. `targets` is laid out as [`side_targets_into`] writes it.
pub(crate) fn imbalance_of(total: &[f64], sum0: &[f64], sum1: &[f64], targets: &[f64]) -> f64 {
    let dims = total.len();
    let mut worst: f64 = 0.0;
    for d in 0..dims {
        if total[d] <= 0.0 {
            continue;
        }
        let t0 = targets[d];
        let t1 = targets[dims + d];
        if t0 > 0.0 {
            worst = worst.max(sum0[d] / t0 - 1.0);
        }
        if t1 > 0.0 {
            worst = worst.max(sum1[d] / t1 - 1.0);
        }
    }
    worst.max(0.0)
}

/// Whether an [`imbalance_of`] value is within `tolerance`.
pub(crate) fn within_tolerance(imbalance: f64, tolerance: f64) -> bool {
    imbalance <= tolerance + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, VertexWeight};

    fn four_unit_vertices() -> Graph {
        let mut b = GraphBuilder::new(2);
        for _ in 0..4 {
            b.add_vertex(VertexWeight::new([1.0, 2.0]));
        }
        b.add_edge(0, 1, 1);
        b.add_edge(2, 3, 1);
        b.build().unwrap()
    }

    #[test]
    fn balanced_split_is_feasible() {
        let g = four_unit_vertices();
        let t = BalanceTracker::new(&g, &[0, 0, 1, 1], 0.5, 0.05);
        assert!(t.is_feasible());
        assert!((t.imbalance() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_split_is_infeasible() {
        let g = four_unit_vertices();
        let t = BalanceTracker::new(&g, &[0, 0, 0, 1], 0.5, 0.05);
        assert!(!t.is_feasible());
        assert!((t.imbalance() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn move_feasibility_respects_cap() {
        let g = four_unit_vertices();
        let t = BalanceTracker::new(&g, &[0, 0, 1, 1], 0.5, 0.05);
        // Moving a vertex to side 1 would push side 1 to 3/2 of target.
        assert!(!t.move_keeps_feasible_slice(g.vertex_weight_slice(0), 0));
    }

    #[test]
    fn apply_move_updates_both_sides() {
        let g = four_unit_vertices();
        let mut t = BalanceTracker::new(&g, &[0, 0, 1, 1], 0.5, 0.5);
        let w = g.vertex_weight_slice(0);
        t.apply_move_slice(w, 0);
        assert_eq!(t.side_weight(0).0, vec![1.0, 2.0]);
        assert_eq!(t.side_weight(1).0, vec![3.0, 6.0]);
        t.apply_move_slice(w, 1);
        assert_eq!(t.side_weight(0).0, vec![2.0, 4.0]);
    }

    #[test]
    fn asymmetric_fraction_targets() {
        let g = four_unit_vertices();
        // frac 0.25: side 0 should hold one vertex out of four.
        let t = BalanceTracker::new(&g, &[0, 1, 1, 1], 0.25, 0.05);
        assert!(t.is_feasible());
        let t2 = BalanceTracker::new(&g, &[0, 0, 1, 1], 0.25, 0.05);
        assert!(!t2.is_feasible());
    }
}
