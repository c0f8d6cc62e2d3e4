//! Undirected weighted graph in compressed sparse row (CSR) form.
//!
//! This is the data structure consumed by the multilevel partitioner. Vertex
//! weights are multi-dimensional (the paper uses ⟨CPU, memory, network⟩), and
//! edge weights are signed integers: positive weights express communication
//! affinity (the min-cut objective keeps them inside a part), negative weights
//! express anti-affinity (replica spreading, Section IV-C of the paper) and
//! are pushed *across* the cut by the same objective.

use std::fmt;

use crate::error::PartitionError;
use crate::workspace::PartitionWorkspace;

/// Index of a vertex inside a [`Graph`].
pub type VertexId = usize;

/// Signed edge weight. Positive = affinity, negative = anti-affinity.
pub type EdgeWeight = i64;

/// A multi-dimensional vertex weight, e.g. ⟨CPU %, memory GB, network Mbps⟩.
///
/// All vertices of one graph share the same number of dimensions.
#[derive(Clone, Debug, PartialEq)]
pub struct VertexWeight(pub Vec<f64>);

impl VertexWeight {
    /// Creates a weight from per-dimension components.
    pub fn new(components: impl Into<Vec<f64>>) -> Self {
        VertexWeight(components.into())
    }

    /// A zero weight with `dims` dimensions.
    pub fn zeros(dims: usize) -> Self {
        VertexWeight(vec![0.0; dims])
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.0.len()
    }

    /// Component-wise addition.
    pub fn add_assign(&mut self, other: &VertexWeight) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += *b;
        }
    }

    /// Component-wise subtraction (saturating at tiny negatives due to float
    /// rounding is the caller's concern).
    pub fn sub_assign(&mut self, other: &VertexWeight) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a -= *b;
        }
    }

    /// Float slack of [`VertexWeight::fits_within`].
    const FIT_EPS: f64 = 1e-9;

    /// True when every component of `self` is `<=` the matching component of
    /// `other` (within a small epsilon to absorb float error).
    pub fn fits_within(&self, other: &VertexWeight) -> bool {
        self.fits_within_slice(&other.0)
    }

    /// [`VertexWeight::fits_within`] against raw components, so a caller
    /// holding a capacity as an array checks it without building a weight.
    pub fn fits_within_slice(&self, cap: &[f64]) -> bool {
        self.0.len() == cap.len()
            && self
                .0
                .iter()
                .zip(cap)
                .all(|(a, b)| *a <= *b + Self::FIT_EPS)
    }

    /// Whether `self + extra` would fit within `cap`: the same answer as
    /// `add_assign` followed by [`VertexWeight::fits_within`], without
    /// cloning `self`.
    pub fn sum_fits_within(&self, extra: &VertexWeight, cap: &VertexWeight) -> bool {
        debug_assert_eq!(self.0.len(), extra.0.len());
        self.0.len() == cap.0.len()
            && self
                .0
                .iter()
                .zip(&extra.0)
                .zip(&cap.0)
                .all(|((a, b), c)| *a + *b <= *c + Self::FIT_EPS)
    }

    /// Component-wise access.
    pub fn component(&self, dim: usize) -> f64 {
        self.0[dim]
    }

    /// Scales every component by `factor`, returning a new weight.
    pub fn scaled(&self, factor: f64) -> VertexWeight {
        VertexWeight(self.0.iter().map(|c| c * factor).collect())
    }

    /// The largest component ratio `self[d] / reference[d]` over all
    /// dimensions; used for multi-constraint balance checks. Dimensions where
    /// the reference is zero are skipped.
    pub fn max_ratio(&self, reference: &VertexWeight) -> f64 {
        Self::max_ratio_slice(&self.0, reference)
    }

    /// [`VertexWeight::max_ratio`] of raw components (as
    /// [`Graph::vertex_weight_slice`] returns them), with the same float
    /// operations in the same order.
    pub fn max_ratio_slice(components: &[f64], reference: &VertexWeight) -> f64 {
        components
            .iter()
            .zip(&reference.0)
            .filter(|(_, r)| **r > 0.0)
            .map(|(s, r)| s / r)
            .fold(0.0, f64::max)
    }
}

impl fmt::Display for VertexWeight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c:.3}")?;
        }
        write!(f, "⟩")
    }
}

/// An undirected graph with multi-dimensional vertex weights and signed edge
/// weights, stored in CSR form.
///
/// Build one with [`GraphBuilder`]:
///
/// ```
/// use goldilocks_partition::{GraphBuilder, VertexWeight};
///
/// let mut b = GraphBuilder::new(2);
/// let a = b.add_vertex(VertexWeight::new([1.0, 4.0]));
/// let c = b.add_vertex(VertexWeight::new([2.0, 1.0]));
/// b.add_edge(a, c, 10);
/// let g = b.build().unwrap();
/// assert_eq!(g.vertex_count(), 2);
/// assert_eq!(g.edge_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Graph {
    /// CSR offsets; `xadj[v]..xadj[v + 1]` indexes `adjncy`/`adjwgt`.
    xadj: Vec<usize>,
    /// Flattened adjacency lists.
    adjncy: Vec<VertexId>,
    /// Edge weight parallel to `adjncy`.
    adjwgt: Vec<EdgeWeight>,
    /// Vertex weights, flattened row-major (`n * dims`).
    vwgt: Vec<f64>,
    /// Per-dimension sum of all vertex weights, computed once at
    /// construction (the graph is immutable) so balance trackers do not
    /// re-sum every vertex on every refinement pass.
    total_vwgt: Vec<f64>,
    /// Sign summary of `adjwgt`, accumulated by whichever loop wrote it.
    signs: EdgeSigns,
    dims: usize,
}

/// Sign summary of a graph's edge weights, over adjacency entries (each
/// undirected edge counts twice): the sum of the negative weights and the
/// number of positive ones. Every constructor accumulates it in the loop
/// that writes `adjwgt`, so caching it costs no extra pass over the edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeSigns {
    negative: EdgeWeight,
    positive: usize,
}

impl EdgeSigns {
    /// Counts one adjacency entry of weight `w`.
    #[inline]
    pub(crate) fn add(&mut self, w: EdgeWeight) {
        self.negative += w.min(0);
        self.positive += usize::from(w > 0);
    }

    /// Uncounts an entry of weight `w` added before (contraction, when a
    /// merged weight changes).
    #[inline]
    pub(crate) fn remove(&mut self, w: EdgeWeight) {
        self.negative -= w.min(0);
        self.positive -= usize::from(w > 0);
    }

    /// The summary of `adjwgt` by a scan: the reference every constructor's
    /// accumulation is checked against in debug builds.
    pub(crate) fn of(adjwgt: &[EdgeWeight]) -> EdgeSigns {
        let mut signs = EdgeSigns::default();
        for &w in adjwgt {
            signs.add(w);
        }
        signs
    }
}

impl Graph {
    /// Builds a graph directly from CSR arrays, bypassing [`GraphBuilder`].
    ///
    /// Used by the allocation-free extraction/contraction paths, which
    /// construct already-merged adjacency in place: extraction emits sorted
    /// rows, contraction emits each row in first-touch order. `signs` is
    /// the [`EdgeSigns`] of `adjwgt`, accumulated while writing it. Debug
    /// builds check the structural invariants and `signs`.
    pub(crate) fn from_csr(
        xadj: Vec<usize>,
        adjncy: Vec<VertexId>,
        adjwgt: Vec<EdgeWeight>,
        signs: EdgeSigns,
        vwgt: Vec<f64>,
        dims: usize,
    ) -> Graph {
        debug_assert!(!xadj.is_empty());
        debug_assert_eq!(xadj.last().copied(), Some(adjncy.len()));
        debug_assert_eq!(adjncy.len(), adjwgt.len());
        debug_assert_eq!(vwgt.len(), (xadj.len() - 1) * dims);
        debug_assert!(xadj.is_sorted());
        debug_assert_eq!(signs, EdgeSigns::of(&adjwgt));
        let total_vwgt = sum_vertex_weights(&vwgt, xadj.len() - 1, dims);
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt,
            total_vwgt,
            signs,
            dims,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.xadj.len() - 1
    }

    /// The CSR row-offset array; `xadj()[v]..xadj()[v + 1]` indexes
    /// [`Graph::adjncy`] / [`Graph::adjwgt`].
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// The flattened adjacency lists (each undirected edge appears twice).
    pub fn adjncy(&self) -> &[VertexId] {
        &self.adjncy
    }

    /// The edge weights parallel to [`Graph::adjncy`].
    pub fn adjwgt(&self) -> &[EdgeWeight] {
        &self.adjwgt
    }

    /// The vertex weights flattened row-major (`vertex_count() * dims()`).
    pub fn vwgt_flat(&self) -> &[f64] {
        &self.vwgt
    }

    /// Number of undirected edges (each stored twice internally).
    pub fn edge_count(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Number of vertex-weight dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// The weight of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    pub fn vertex_weight(&self, v: VertexId) -> VertexWeight {
        let start = v * self.dims;
        VertexWeight(self.vwgt[start..start + self.dims].to_vec())
    }

    /// A borrowed view of vertex `v`'s weight components.
    pub fn vertex_weight_slice(&self, v: VertexId) -> &[f64] {
        let start = v * self.dims;
        &self.vwgt[start..start + self.dims]
    }

    /// Iterates over `(neighbor, edge_weight)` pairs of vertex `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeWeight)> + '_ {
        let range = self.xadj[v]..self.xadj[v + 1];
        // lint:allow(zero-alloc-hot-path) -- Range::clone copies two usizes; no allocation
        self.adjncy[range.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[range].iter().copied())
    }

    /// Degree (number of incident edges) of vertex `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Sum of all vertex weights (cached at construction).
    pub fn total_vertex_weight(&self) -> VertexWeight {
        VertexWeight(self.total_vwgt.clone())
    }

    /// Borrowed view of the per-dimension total vertex weight.
    pub fn total_vertex_weight_slice(&self) -> &[f64] {
        &self.total_vwgt
    }

    /// Aggregate weight of an arbitrary vertex subset.
    pub fn subset_weight(&self, vertices: &[VertexId]) -> VertexWeight {
        let mut total = VertexWeight::zeros(self.dims);
        self.subset_weight_into(vertices, &mut total);
        total
    }

    /// [`Graph::subset_weight`] written into `out`, whose buffer is reused:
    /// the same sums in the same order, without a new weight per call.
    pub fn subset_weight_into(&self, vertices: &[VertexId], out: &mut VertexWeight) {
        out.0.clear();
        out.0.resize(self.dims, 0.0);
        for &v in vertices {
            for d in 0..self.dims {
                out.0[d] += self.vwgt[v * self.dims + d];
            }
        }
    }

    /// The edge cut of a 2-way assignment: the sum of weights of edges whose
    /// endpoints live in different parts. Negative-weight edges across the
    /// cut *decrease* the value.
    pub fn cut(&self, side: &[u8]) -> EdgeWeight {
        debug_assert_eq!(side.len(), self.vertex_count());
        let mut cut = 0;
        for v in 0..self.vertex_count() {
            for (u, w) in self.neighbors(v) {
                if side[v] != side[u] {
                    cut += w;
                }
            }
        }
        cut / 2
    }

    /// The k-way edge cut of an arbitrary partition labeling.
    pub fn cut_kway(&self, part: &[usize]) -> EdgeWeight {
        debug_assert_eq!(part.len(), self.vertex_count());
        let mut cut = 0;
        for v in 0..self.vertex_count() {
            for (u, w) in self.neighbors(v) {
                if part[v] != part[u] {
                    cut += w;
                }
            }
        }
        cut / 2
    }

    /// Sum of the *positive* edge weights only — the total communication
    /// volume available to be localized.
    pub fn total_positive_edge_weight(&self) -> EdgeWeight {
        self.adjwgt.iter().filter(|w| **w > 0).sum::<EdgeWeight>() / 2
    }

    /// The least cut any bisection can have: the sum of the negative edge
    /// weights, each undirected edge counted once (0 without anti-affinity
    /// edges). A cut sums the weights of the edges it crosses, so it is at
    /// least the sum of the negative ones. Cached at construction.
    pub(crate) fn cut_floor(&self) -> EdgeWeight {
        self.signs.negative / 2
    }

    /// Whether any edge weight is positive: without one, matching has
    /// nothing to contract. Cached at construction.
    pub(crate) fn has_positive_edge(&self) -> bool {
        self.signs.positive > 0
    }

    /// Extracts the induced subgraph on `vertices`, with scratch memory
    /// from `ws` — the allocation-free hot path used by the recursive
    /// partitioners.
    ///
    /// New vertex `i` of the result is `vertices[i]` in `self` — the input
    /// slice *is* the new→old mapping, so no mapping is returned. Edges to
    /// vertices outside the subset are dropped. `vertices` must contain
    /// distinct ids.
    ///
    /// Direct CSR→CSR two-pass extraction: count kept-neighbor degrees, then
    /// fill `xadj`/`adjncy`/`adjwgt` in place. The stamped old→new map makes
    /// the cost O(|subset| + incident edges) instead of O(full graph), and no
    /// intermediate builder map is ever materialized.
    pub fn subgraph_in(&self, vertices: &[VertexId], ws: &mut PartitionWorkspace) -> Graph {
        let scratch = &mut ws.subgraph;
        let m = vertices.len();
        scratch.map.begin(self.vertex_count());
        for (new, &old) in vertices.iter().enumerate() {
            debug_assert!(!scratch.map.contains(old), "duplicate vertex {old}");
            scratch.map.insert(old, new);
        }

        // Pass 1: per-new-vertex degree counts become the offset array.
        let mut xadj = vec![0usize; m + 1];
        let mut read = 0;
        for (new, &old) in vertices.iter().enumerate() {
            let row = &self.adjncy[self.xadj[old]..self.xadj[old + 1]];
            read += row.len();
            let kept = row.iter().filter(|&&u| scratch.map.contains(u)).count();
            xadj[new + 1] = xadj[new] + kept;
        }
        // Pass 2 reads the same rows again.
        scratch.row_scans += 2 * read as u64;

        // Pass 2: fill adjacency. Source rows are sorted by old id; when the
        // subset is ascending the old→new map is monotone, so rows come out
        // sorted for free (the hot path — the recursion always passes
        // ascending slices). Otherwise sort each row to keep the canonical
        // sorted-adjacency invariant.
        let ascending = vertices.is_sorted_by(|a, b| a < b);
        let total = xadj[m];
        let mut adjncy = vec![0 as VertexId; total];
        let mut adjwgt = vec![0 as EdgeWeight; total];
        let mut signs = EdgeSigns::default();
        for (new, &old) in vertices.iter().enumerate() {
            let mut cursor = xadj[new];
            for i in self.xadj[old]..self.xadj[old + 1] {
                if let Some(nu) = scratch.map.get(self.adjncy[i]) {
                    adjncy[cursor] = nu;
                    adjwgt[cursor] = self.adjwgt[i];
                    signs.add(self.adjwgt[i]);
                    cursor += 1;
                }
            }
            if !ascending {
                let range = xadj[new]..xadj[new + 1];
                scratch.row.clear();
                scratch.row.extend(
                    adjncy[range.clone()]
                        .iter()
                        .copied()
                        .zip(adjwgt[range.clone()].iter().copied()),
                );
                scratch.row.sort_unstable_by_key(|&(u, _)| u);
                for (offset, &(u, w)) in scratch.row.iter().enumerate() {
                    adjncy[range.start + offset] = u;
                    adjwgt[range.start + offset] = w;
                }
            }
        }

        let mut vwgt = Vec::with_capacity(m * self.dims);
        for &old in vertices {
            vwgt.extend_from_slice(self.vertex_weight_slice(old));
        }
        Graph::from_csr(xadj, adjncy, adjwgt, signs, vwgt, self.dims)
    }

    /// Builds a graph from a flat (possibly unsorted, possibly duplicated)
    /// undirected edge list — the arena-friendly form of [`GraphBuilder`],
    /// which collects its edges into such a list and builds through here.
    ///
    /// `edges` is taken as scratch: entries are normalized to `(min, max)`,
    /// sorted, and parallel edges merged by summing weights in place. Merged
    /// weights of zero are dropped. The resulting CSR arrays are
    /// **bit-identical** to what [`GraphBuilder`] produces for the same edge
    /// multiset: both builders share this validation, merge and two-pass
    /// cursor fill, and weight merging is exact integer addition
    /// (order-independent).
    ///
    /// `vwgt` is the flattened row-major vertex-weight table
    /// (`n * dims` entries).
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::SelfLoop`] for an edge with equal endpoints
    /// and [`PartitionError::VertexOutOfRange`] for an endpoint `>= n`; with
    /// several bad edges, the first in list order is reported.
    pub fn from_edges(
        n: usize,
        dims: usize,
        vwgt: Vec<f64>,
        edges: &mut Vec<(u32, u32, EdgeWeight)>,
    ) -> Result<Graph, PartitionError> {
        Graph::from_edge_list(n, dims, vwgt, edges)
    }

    /// [`Graph::from_edges`] over either edge-list id width.
    fn from_edge_list<I: EdgeEnd>(
        n: usize,
        dims: usize,
        vwgt: Vec<f64>,
        edges: &mut Vec<(I, I, EdgeWeight)>,
    ) -> Result<Graph, PartitionError> {
        assert_eq!(
            vwgt.len(),
            n * dims,
            "vertex-weight table must hold n * dims entries"
        );
        normalize_edges(edges, 0, n)?;
        let (xadj, adjncy, adjwgt, signs) = fill_csr(None, n, edges);
        Ok(Graph::from_csr(xadj, adjncy, adjwgt, signs, vwgt, dims))
    }

    /// Rewrites every vertex weight in place via `write(v, row)` and
    /// recomputes the cached per-dimension totals — in the same fine-vertex
    /// accumulation order as construction, so the refreshed totals are
    /// bit-identical to a from-scratch build over the same weights.
    ///
    /// The adjacency structure is untouched and **no allocation happens**:
    /// this is the warm-epoch path for workloads whose demands change while
    /// their communication structure does not.
    pub fn refresh_vertex_weights(&mut self, mut write: impl FnMut(VertexId, &mut [f64])) {
        let dims = self.dims;
        let n = self.vertex_count();
        for v in 0..n {
            write(v, &mut self.vwgt[v * dims..(v + 1) * dims]);
        }
        for t in &mut self.total_vwgt {
            *t = 0.0;
        }
        for v in 0..n {
            for d in 0..dims {
                self.total_vwgt[d] += self.vwgt[v * dims + d];
            }
        }
    }

    /// Extends the graph to `new_n` vertices by applying a CSR edit list:
    /// `added_vwgt` carries the weights of vertices `old_n..new_n`
    /// (flattened, `(new_n - old_n) * dims` entries) and `delta` the new
    /// undirected edges, **every one of which must touch at least one added
    /// vertex** — existing rows then only ever *append* neighbors `>=
    /// old_n`, which keeps them sorted without re-merging.
    ///
    /// `delta` is scratch like in [`Graph::from_edges`]: normalized, sorted
    /// and merged in place (zero sums dropped). Given the same total edge
    /// multiset, the result is bit-identical to a full
    /// [`Graph::from_edges`] build — old rows keep their exact bytes, and
    /// appended/new rows come out in the same `(min, max)` fill order.
    ///
    /// # Errors
    ///
    /// [`PartitionError::SelfLoop`] / [`PartitionError::VertexOutOfRange`]
    /// as in [`Graph::from_edges`], plus
    /// [`PartitionError::InvalidDeltaEdge`] when a delta edge connects two
    /// pre-existing vertices (the caller must full-rebuild instead).
    pub fn grown(
        &self,
        new_n: usize,
        added_vwgt: &[f64],
        delta: &mut Vec<(u32, u32, EdgeWeight)>,
    ) -> Result<Graph, PartitionError> {
        let old_n = self.vertex_count();
        assert!(new_n >= old_n, "grown() cannot shrink ({new_n} < {old_n})");
        assert_eq!(
            added_vwgt.len(),
            (new_n - old_n) * self.dims,
            "added vertex-weight table must hold (new_n - old_n) * dims entries"
        );
        normalize_edges(delta, old_n, new_n)?;
        let (xadj, adjncy, adjwgt, signs) = fill_csr(Some(self), new_n, delta);
        let mut vwgt = Vec::with_capacity(new_n * self.dims);
        vwgt.extend_from_slice(&self.vwgt);
        vwgt.extend_from_slice(added_vwgt);
        Ok(Graph::from_csr(
            xadj, adjncy, adjwgt, signs, vwgt, self.dims,
        ))
    }
}

/// An edge endpoint as an edge list stores it: `u32` in the arena-built
/// lists of [`Graph::from_edges`], [`VertexId`] in [`GraphBuilder`].
/// Validation widens every id to `usize` before comparing it with the
/// vertex count, so no id is ever truncated.
trait EdgeEnd: Copy + Ord {
    fn index(self) -> usize;
}

impl EdgeEnd for u32 {
    fn index(self) -> usize {
        self as usize
    }
}

impl EdgeEnd for VertexId {
    fn index(self) -> usize {
        self
    }
}

/// The validation loop shared by every builder: rejects self-loops and
/// endpoints `>= n`, normalizes each edge to `(min, max)`, then sorts and
/// merges the list (see [`merge_sorted_edges`]). Edges between two of the
/// first `old_n` vertices are rejected as
/// [`PartitionError::InvalidDeltaEdge`] — [`Graph::grown`]'s delta rule;
/// full builds pass `old_n = 0`. The first bad edge in list order is
/// reported.
fn normalize_edges<I: EdgeEnd>(
    edges: &mut Vec<(I, I, EdgeWeight)>,
    old_n: usize,
    n: usize,
) -> Result<(), PartitionError> {
    for e in edges.iter_mut() {
        if e.0 == e.1 {
            return Err(PartitionError::SelfLoop {
                vertex: e.0.index(),
            });
        }
        if e.0 > e.1 {
            std::mem::swap(&mut e.0, &mut e.1);
        }
        if e.1.index() >= n {
            return Err(PartitionError::VertexOutOfRange {
                vertex: e.1.index(),
                count: n,
            });
        }
        if e.1.index() < old_n {
            return Err(PartitionError::InvalidDeltaEdge {
                u: e.0.index(),
                v: e.1.index(),
            });
        }
    }
    merge_sorted_edges(edges);
    Ok(())
}

/// Normalized-edge sort + in-place parallel-edge merge: sort by
/// `(min, max)`, sum duplicate pairs with exact integer addition, drop
/// pairs whose merged weight is zero.
fn merge_sorted_edges<I: EdgeEnd>(edges: &mut Vec<(I, I, EdgeWeight)>) {
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    let mut kept = 0usize;
    for i in 0..edges.len() {
        if kept > 0 && edges[kept - 1].0 == edges[i].0 && edges[kept - 1].1 == edges[i].1 {
            edges[kept - 1].2 += edges[i].2;
        } else {
            edges[kept] = edges[i];
            kept += 1;
        }
    }
    edges.truncate(kept);
    edges.retain(|&(_, _, w)| w != 0);
}

/// The two-pass CSR fill shared by every builder, over `n` vertices and a
/// normalized, merged edge list. Each row holds `base`'s row, if `base`
/// has that vertex, followed by the row's `edges` entries: pass 1 counts
/// row lengths into the offsets and prefix-sums them, pass 2 copies the
/// `base` rows verbatim and then writes each edge at both endpoints'
/// cursors in `(min, max)` order. [`Graph::grown`] only adds edges to new vertices,
/// so appending keeps the `base` rows sorted. The [`EdgeSigns`] start from
/// `base`'s and count each written entry.
fn fill_csr<I: EdgeEnd>(
    base: Option<&Graph>,
    n: usize,
    edges: &[(I, I, EdgeWeight)],
) -> (Vec<usize>, Vec<VertexId>, Vec<EdgeWeight>, EdgeSigns) {
    let base_n = base.map_or(0, Graph::vertex_count);
    // Row lengths go into `xadj[v + 1]` and are prefix-summed in place.
    let mut xadj = vec![0usize; n + 1];
    if let Some(g) = base {
        for (v, len) in xadj[1..=base_n].iter_mut().enumerate() {
            *len = g.degree(v);
        }
    }
    for &(u, v, _) in edges {
        xadj[u.index() + 1] += 1;
        xadj[v.index() + 1] += 1;
    }
    for v in 1..=n {
        xadj[v] += xadj[v - 1];
    }
    let mut adjncy = vec![0; xadj[n]];
    let mut adjwgt = vec![0; xadj[n]];
    let mut cursor = xadj[..n].to_vec();
    let mut signs = base.map_or_else(EdgeSigns::default, |g| g.signs);
    if let Some(g) = base {
        for (v, c) in cursor.iter_mut().enumerate().take(base_n) {
            let src = g.xadj[v]..g.xadj[v + 1];
            let dst = *c..*c + src.len();
            adjncy[dst.clone()].copy_from_slice(&g.adjncy[src.clone()]);
            adjwgt[dst.clone()].copy_from_slice(&g.adjwgt[src]);
            *c = dst.end;
        }
    }
    for &(u, v, w) in edges {
        let (u, v) = (u.index(), v.index());
        adjncy[cursor[u]] = v;
        adjwgt[cursor[u]] = w;
        signs.add(w);
        cursor[u] += 1;
        adjncy[cursor[v]] = u;
        adjwgt[cursor[v]] = w;
        signs.add(w);
        cursor[v] += 1;
    }
    (xadj, adjncy, adjwgt, signs)
}

/// Incremental builder for [`Graph`].
///
/// Edges are collected as added and validated, merged and laid out by
/// [`GraphBuilder::build`] through the same code as [`Graph::from_edges`]:
/// parallel edges between the same vertex pair are merged by summing
/// weights; self-loops are rejected.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    dims: usize,
    vwgt: Vec<f64>,
    edges: Vec<(VertexId, VertexId, EdgeWeight)>,
    n: usize,
}

impl GraphBuilder {
    /// Creates a builder for graphs with `dims`-dimensional vertex weights.
    pub fn new(dims: usize) -> Self {
        GraphBuilder {
            dims,
            vwgt: Vec::new(),
            edges: Vec::new(),
            n: 0,
        }
    }

    /// Adds a vertex and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the weight's dimensionality differs from the builder's.
    pub fn add_vertex(&mut self, weight: VertexWeight) -> VertexId {
        assert_eq!(
            weight.dims(),
            self.dims,
            "vertex weight dims {} != builder dims {}",
            weight.dims(),
            self.dims
        );
        self.vwgt.extend_from_slice(&weight.0);
        self.n += 1;
        self.n - 1
    }

    /// Current number of vertices added.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Adds (or merges into) an undirected edge between `u` and `v`.
    ///
    /// Edges with both orientations and duplicates accumulate their weights.
    /// Adding an edge with weight 0 is a no-op unless it merges later.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, weight: EdgeWeight) {
        self.edges.push((u, v, weight));
    }

    /// Finalizes the CSR representation.
    ///
    /// # Errors
    ///
    /// Returns [`PartitionError::SelfLoop`] if any edge connects a vertex to
    /// itself and [`PartitionError::VertexOutOfRange`] if an edge references
    /// a vertex that was never added; with several bad edges, the first
    /// added is reported.
    pub fn build(mut self) -> Result<Graph, PartitionError> {
        Graph::from_edge_list(self.n, self.dims, self.vwgt, &mut self.edges)
    }
}

/// Per-dimension vertex-weight totals, accumulated in fine-vertex order —
/// the same order [`Graph::total_vertex_weight`] historically summed in, so
/// the cached totals are bit-identical to an on-demand recomputation.
fn sum_vertex_weights(vwgt: &[f64], n: usize, dims: usize) -> Vec<f64> {
    let mut total = vec![0.0f64; dims];
    for v in 0..n {
        for d in 0..dims {
            total[d] += vwgt[v * dims + d];
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_rng::SplitMix64;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_vertex(VertexWeight::new([1.0]));
        let v1 = b.add_vertex(VertexWeight::new([2.0]));
        let v2 = b.add_vertex(VertexWeight::new([3.0]));
        b.add_edge(v0, v1, 5);
        b.add_edge(v1, v2, 7);
        b.add_edge(v2, v0, -2);
        b.build().unwrap()
    }

    #[test]
    fn builder_counts() {
        let g = triangle();
        assert_eq!(g.vertex_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.dims(), 1);
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for v in 0..3 {
            for (u, w) in g.neighbors(v) {
                let back: Vec<_> = g.neighbors(u).filter(|(x, _)| *x == v).collect();
                assert_eq!(back, vec![(v, w)]);
            }
        }
    }

    #[test]
    fn parallel_edges_merge() {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_vertex(VertexWeight::new([1.0]));
        let v1 = b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(v0, v1, 3);
        b.add_edge(v1, v0, 4);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(v0).next(), Some((v1, 7)));
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(v, v, 1);
        assert!(matches!(
            b.build(),
            Err(PartitionError::SelfLoop { vertex: 0 })
        ));
    }

    #[test]
    fn out_of_range_edge_rejected() {
        let mut b = GraphBuilder::new(1);
        let v = b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(v, 9, 1);
        assert!(matches!(
            b.build(),
            Err(PartitionError::VertexOutOfRange {
                vertex: 9,
                count: 1
            })
        ));
    }

    #[test]
    fn zero_weight_edges_dropped() {
        let mut b = GraphBuilder::new(1);
        let v0 = b.add_vertex(VertexWeight::new([1.0]));
        let v1 = b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(v0, v1, 2);
        b.add_edge(v0, v1, -2);
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.degree(v0), 0);
    }

    #[test]
    fn cut_counts_cross_edges_once() {
        let g = triangle();
        // side: {0} vs {1, 2} cuts edges (0,1)=5 and (0,2)=-2.
        assert_eq!(g.cut(&[0, 1, 1]), 3);
        // all same side: no cut.
        assert_eq!(g.cut(&[0, 0, 0]), 0);
    }

    #[test]
    fn cut_floor_sums_negative_edges_once() {
        let g = triangle();
        assert_eq!(g.cut_floor(), -2);
        assert!(g.has_positive_edge());
        // Cutting the -2 edge alone is impossible in a triangle: any
        // bisection cuts two of its edges, so the floor is a lower bound,
        // not always attained.
        for side in [[0, 0, 1], [0, 1, 0], [1, 0, 0]] {
            assert!(g.cut(&side) >= g.cut_floor());
        }
        let mut b = GraphBuilder::new(1);
        for _ in 0..4 {
            b.add_vertex(VertexWeight::new([1.0]));
        }
        b.add_edge(0, 1, -3);
        b.add_edge(2, 3, -4);
        let anti = b.build().unwrap();
        assert_eq!(anti.cut_floor(), -7);
        assert!(!anti.has_positive_edge());
        assert_eq!(anti.cut(&[0, 1, 0, 1]), anti.cut_floor());
        let edgeless = GraphBuilder::new(1).build().unwrap();
        assert_eq!(edgeless.cut_floor(), 0);
        assert!(!edgeless.has_positive_edge());
    }

    /// Every constructor caches the same sign summary a scan of its
    /// `adjwgt` gives (from_csr checks it in debug builds too), and no
    /// bisection of a random mixed-sign graph cuts below the floor.
    #[test]
    fn cached_signs_match_a_scan_and_bound_every_cut() {
        let mut ws = PartitionWorkspace::new();
        for seed in [3u64, 8, 21] {
            let n = 48;
            let mut edges = edge_soup(n, 150, seed);
            let g = Graph::from_edges(n, 1, vec![1.0; n], &mut edges).unwrap();
            let sub = g.subgraph_in(&[40, 2, 7, 30, 11, 5, 19], &mut ws);
            let mut delta = vec![(3, 48, -5), (48, 49, 6)];
            let grown = g.grown(50, &[1.0, 1.0], &mut delta).unwrap();
            for h in [&g, &sub, &grown] {
                assert_eq!(h.signs, EdgeSigns::of(h.adjwgt()));
                assert_eq!(
                    h.cut_floor(),
                    h.adjwgt().iter().filter(|w| **w < 0).sum::<EdgeWeight>() / 2
                );
                let mut state = seed;
                for _ in 0..32 {
                    let side: Vec<u8> = (0..h.vertex_count())
                        .map(|_| {
                            state = goldilocks_rng::mix(state);
                            (state & 1) as u8
                        })
                        .collect();
                    assert!(h.cut(&side) >= h.cut_floor());
                }
            }
        }
    }

    #[test]
    fn cut_kway_matches_two_way() {
        let g = triangle();
        assert_eq!(g.cut_kway(&[0, 1, 1]), g.cut(&[0, 1, 1]));
        assert_eq!(g.cut_kway(&[0, 1, 2]), 5 + 7 - 2);
    }

    #[test]
    fn total_and_subset_weights() {
        let g = triangle();
        assert_eq!(g.total_vertex_weight().0, vec![6.0]);
        assert_eq!(g.subset_weight(&[0, 2]).0, vec![4.0]);
    }

    #[test]
    fn subgraph_preserves_inner_edges() {
        let g = triangle();
        let sub = g.subgraph_in(&[1, 2], &mut PartitionWorkspace::new());
        assert_eq!(sub.vertex_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.neighbors(0).next(), Some((1, 7)));
        assert_eq!(sub.vertex_weight(0).0, vec![2.0]);
    }

    #[test]
    fn subgraph_of_unsorted_subset_has_sorted_rows() {
        let g = triangle();
        // Subset given in non-ascending order: new ids are positional, and
        // every adjacency row must still come out sorted by new id.
        let sub = g.subgraph_in(&[2, 0, 1], &mut PartitionWorkspace::new());
        assert_eq!(sub.vertex_count(), 3);
        assert_eq!(sub.edge_count(), 3);
        for v in 0..3 {
            let row: Vec<_> = sub.neighbors(v).map(|(u, _)| u).collect();
            let mut sorted = row.clone();
            sorted.sort_unstable();
            assert_eq!(row, sorted, "row {v} not sorted");
        }
        // Vertex 0 of the subgraph is old vertex 2: edges (2,1)=7, (2,0)=-2.
        assert_eq!(sub.vertex_weight(0).0, vec![3.0]);
        let w: Vec<_> = sub.neighbors(0).collect();
        assert_eq!(w, vec![(1, -2), (2, 7)]);
    }

    #[test]
    fn subgraph_empty_and_full_subsets() {
        let g = triangle();
        let empty = g.subgraph_in(&[], &mut PartitionWorkspace::new());
        assert_eq!(empty.vertex_count(), 0);
        assert_eq!(empty.edge_count(), 0);
        let full = g.subgraph_in(&[0, 1, 2], &mut PartitionWorkspace::new());
        assert_eq!(full.xadj(), g.xadj());
        assert_eq!(full.adjncy(), g.adjncy());
        assert_eq!(full.adjwgt(), g.adjwgt());
        assert_eq!(full.vwgt_flat(), g.vwgt_flat());
    }

    #[test]
    fn subgraph_in_reuses_workspace() {
        let g = triangle();
        let mut ws = PartitionWorkspace::new();
        let a = g.subgraph_in(&[0, 1], &mut ws);
        let b = g.subgraph_in(&[1, 2], &mut ws);
        assert_eq!(a.neighbors(0).next(), Some((1, 5)));
        assert_eq!(b.neighbors(0).next(), Some((1, 7)));
    }

    #[test]
    fn vertex_weight_ops() {
        let mut a = VertexWeight::new([1.0, 2.0]);
        let b = VertexWeight::new([0.5, 3.0]);
        a.add_assign(&b);
        assert_eq!(a.0, vec![1.5, 5.0]);
        a.sub_assign(&b);
        assert_eq!(a.0, vec![1.0, 2.0]);
        assert!(a.fits_within(&VertexWeight::new([1.0, 2.0])));
        assert!(!a.fits_within(&VertexWeight::new([0.9, 2.0])));
        assert!((a.max_ratio(&VertexWeight::new([2.0, 2.0])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_formats() {
        let w = VertexWeight::new([1.0, 2.5]);
        assert_eq!(format!("{w}"), "⟨1.000, 2.500⟩");
    }

    /// A seeded edge soup with duplicates, both orientations and zero-sum
    /// pairs — the adversarial input for builder equivalence.
    fn edge_soup(n: usize, count: usize, seed: u64) -> Vec<(u32, u32, EdgeWeight)> {
        let mut rng = SplitMix64::seed_from_u64(seed);
        let mut edges = Vec::new();
        for _ in 0..count {
            let u = rng.range(0..n) as u32;
            let v = rng.range(0..n) as u32;
            if u == v {
                continue;
            }
            let w = rng.below(21) as i64 - 10;
            edges.push((u, v, w));
        }
        edges
    }

    /// `n · dims` mixed vertex weights in `[0.25, 1.25)`.
    fn mixed_vwgt(n: usize, dims: usize) -> Vec<f64> {
        (0..n * dims)
            .map(|i| 0.25 + ((i * 37 + 11) % 101) as f64 / 101.0)
            .collect()
    }

    #[test]
    fn from_edges_matches_graph_builder_bit_for_bit() {
        /// The pre-unification `GraphBuilder::build`: merge into a
        /// `BTreeMap` keyed `(min, max)`, drop zero sums, then cursor-fill
        /// in key order. The oracle both builders must reproduce exactly.
        fn btree_oracle(
            n: usize,
            dims: usize,
            vwgt: Vec<f64>,
            edges: &[(usize, usize, EdgeWeight)],
        ) -> Graph {
            let mut merged = std::collections::BTreeMap::new();
            for &(u, v, w) in edges {
                *merged.entry((u.min(v), u.max(v))).or_insert(0) += w;
            }
            merged.retain(|_, w| *w != 0);
            let mut xadj = vec![0usize; n + 1];
            for &(u, v) in merged.keys() {
                xadj[u + 1] += 1;
                xadj[v + 1] += 1;
            }
            for v in 0..n {
                xadj[v + 1] += xadj[v];
            }
            let mut adjncy = vec![0; xadj[n]];
            let mut adjwgt = vec![0; xadj[n]];
            let mut cursor = xadj[..n].to_vec();
            for (&(u, v), &w) in &merged {
                adjncy[cursor[u]] = v;
                adjwgt[cursor[u]] = w;
                cursor[u] += 1;
                adjncy[cursor[v]] = u;
                adjwgt[cursor[v]] = w;
                cursor[v] += 1;
            }
            let signs = EdgeSigns::of(&adjwgt);
            Graph::from_csr(xadj, adjncy, adjwgt, signs, vwgt, dims)
        }

        fn assert_same(g: &Graph, reference: &Graph, what: &str) {
            assert_eq!(g.xadj(), reference.xadj(), "{what}");
            assert_eq!(g.adjncy(), reference.adjncy(), "{what}");
            assert_eq!(g.adjwgt(), reference.adjwgt(), "{what}");
            assert_eq!(g.vwgt_flat(), reference.vwgt_flat(), "{what}");
            assert_eq!(g.signs, reference.signs, "{what}");
            let bits = |g: &Graph| -> Vec<u64> {
                g.total_vertex_weight_slice()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            };
            assert_eq!(
                bits(g),
                bits(reference),
                "{what}: totals must be bit-identical"
            );
        }

        for seed in [1u64, 7, 42, 9001] {
            let n = 64;
            let mut edges = edge_soup(n, 400, seed);
            // Pairs that merge to zero, given in both orientations, and a
            // pair whose two orientations merge to a nonzero sum.
            edges.extend([
                (3, 5, 4),
                (5, 3, -4),
                (9, 2, 6),
                (2, 9, -6),
                (11, 40, 2),
                (40, 11, 3),
            ]);
            let vwgt = mixed_vwgt(n, 3);
            let wide: Vec<_> = edges
                .iter()
                .map(|&(u, v, w)| (u as usize, v as usize, w))
                .collect();
            let reference = btree_oracle(n, 3, vwgt.clone(), &wide);

            let mut b = GraphBuilder::new(3);
            for v in 0..n {
                b.add_vertex(VertexWeight::new(vwgt[v * 3..v * 3 + 3].to_vec()));
            }
            for &(u, v, w) in &wide {
                b.add_edge(u, v, w);
            }
            assert_same(
                &b.build().unwrap(),
                &reference,
                &format!("builder, seed {seed}"),
            );

            let g = Graph::from_edges(n, 3, vwgt, &mut edges).unwrap();
            assert_same(&g, &reference, &format!("from_edges, seed {seed}"));
        }
    }

    #[test]
    fn builder_never_truncates_vertex_ids() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(0, 1 << 33, 1);
        assert_eq!(
            b.build().unwrap_err(),
            PartitionError::VertexOutOfRange {
                vertex: 1 << 33,
                count: 2
            }
        );
    }

    /// With several bad edges, the first one added is reported: the builder
    /// validates its edge list in order, as `from_edges` does.
    #[test]
    fn builder_reports_first_bad_edge_added() {
        let mut b = GraphBuilder::new(1);
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_vertex(VertexWeight::new([1.0]));
        b.add_edge(1, 9, 1);
        b.add_edge(0, 0, 1);
        assert_eq!(
            b.build().unwrap_err(),
            PartitionError::VertexOutOfRange {
                vertex: 9,
                count: 2
            }
        );
    }

    #[test]
    fn from_edges_rejects_bad_edges() {
        assert!(matches!(
            Graph::from_edges(2, 1, vec![1.0, 1.0], &mut vec![(1, 1, 5)]),
            Err(PartitionError::SelfLoop { vertex: 1 })
        ));
        assert!(matches!(
            Graph::from_edges(2, 1, vec![1.0, 1.0], &mut vec![(0, 9, 5)]),
            Err(PartitionError::VertexOutOfRange {
                vertex: 9,
                count: 2
            })
        ));
    }

    #[test]
    fn refresh_vertex_weights_rewrites_in_place() {
        let mut g = triangle();
        g.refresh_vertex_weights(|v, row| {
            for x in row.iter_mut() {
                *x = (v + 10) as f64;
            }
        });
        assert_eq!(g.vertex_weight(0).0, vec![10.0]);
        assert_eq!(g.vertex_weight(2).0, vec![12.0]);
        assert_eq!(g.total_vertex_weight().0, vec![33.0]);
        // Structure untouched.
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn refresh_totals_match_fresh_build_bits() {
        let n = 48;
        let edges = edge_soup(n, 200, 3);
        let old_vwgt = mixed_vwgt(n, 3);
        let new_vwgt = mixed_vwgt(n + 5, 3)[..n * 3].to_vec();

        let mut warm = Graph::from_edges(n, 3, old_vwgt, &mut edges.clone()).unwrap();
        warm.refresh_vertex_weights(|v, row| {
            row.copy_from_slice(&new_vwgt[v * 3..v * 3 + 3]);
        });
        let fresh = Graph::from_edges(n, 3, new_vwgt, &mut edges.clone()).unwrap();
        assert_eq!(warm.vwgt_flat(), fresh.vwgt_flat());
        let a: Vec<u64> = warm
            .total_vertex_weight_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        let b: Vec<u64> = fresh
            .total_vertex_weight_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn grown_matches_full_rebuild_bit_for_bit() {
        for seed in [2u64, 13, 77] {
            let old_n = 40;
            let new_n = 56;
            let vwgt = mixed_vwgt(new_n, 3);
            // Old edges live entirely below old_n; delta edges each touch a
            // vertex >= old_n (duplicates included to exercise merging).
            let old_edges = edge_soup(old_n, 220, seed);
            let delta: Vec<(u32, u32, EdgeWeight)> = edge_soup(new_n, 300, seed ^ 0xBEEF)
                .into_iter()
                .filter(|&(u, v, _)| (u.max(v) as usize) >= old_n)
                .collect();

            let old =
                Graph::from_edges(old_n, 3, vwgt[..old_n * 3].to_vec(), &mut old_edges.clone())
                    .unwrap();
            let g = old
                .grown(new_n, &vwgt[old_n * 3..], &mut delta.clone())
                .unwrap();

            let mut all = old_edges.clone();
            all.extend_from_slice(&delta);
            let full = Graph::from_edges(new_n, 3, vwgt.clone(), &mut all).unwrap();
            assert_eq!(g.xadj(), full.xadj(), "seed {seed}");
            assert_eq!(g.adjncy(), full.adjncy(), "seed {seed}");
            assert_eq!(g.adjwgt(), full.adjwgt(), "seed {seed}");
            assert_eq!(g.vwgt_flat(), full.vwgt_flat(), "seed {seed}");
            assert_eq!(g.signs, full.signs, "seed {seed}");
        }
    }

    #[test]
    fn grown_rejects_stale_delta_edges() {
        let old = Graph::from_edges(3, 1, vec![1.0; 3], &mut vec![(0, 1, 2)]).unwrap();
        let err = old.grown(5, &[1.0, 1.0], &mut vec![(0, 2, 3)]).unwrap_err();
        assert!(matches!(
            err,
            PartitionError::InvalidDeltaEdge { u: 0, v: 2 }
        ));
        // Growing by zero vertices with no delta is the identity.
        let same = old.grown(3, &[], &mut Vec::new()).unwrap();
        assert_eq!(same.xadj(), old.xadj());
        assert_eq!(same.adjncy(), old.adjncy());
        assert_eq!(same.adjwgt(), old.adjwgt());
    }
}
