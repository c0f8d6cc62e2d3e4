//! Reusable scratch memory for the partitioner hot path.
//!
//! The recursive drivers extract thousands of subgraphs, coarsen each one
//! through several levels, and run FM refinement at every level. Done naively
//! every one of those steps allocates fresh vectors (and the original
//! implementation additionally paid a `BTreeMap` per rebuilt graph), so the
//! single-thread inner loop is allocation-bound rather than compute-bound.
//! [`PartitionWorkspace`] owns every scratch buffer those steps need and is
//! threaded through the recursion; buffers grow to the high-water mark once
//! and are reused for the rest of the epoch.
//!
//! Determinism is unaffected: the buffers only cache *capacity*, never
//! values — each use fully reinitializes the region it reads (the stamped
//! maps via an epoch counter, the dense vectors via explicit refills), so a
//! warm workspace computes bit-for-bit the same partition as a cold one.
//! The parallel drivers give each forked branch its own workspace, so
//! workers never share scratch.

use crate::graph::EdgeWeight;

/// An epoch-stamped sparse map from vertex id to `usize`, with O(1) reset.
///
/// A slot is valid only when its stamp equals the current epoch, so clearing
/// the map between uses is a single counter increment instead of an O(n)
/// fill — the trick that makes per-recursion-level subgraph extraction cost
/// O(subset) instead of O(full graph).
#[derive(Clone, Debug, Default)]
pub(crate) struct StampedMap {
    value: Vec<usize>,
    stamp: Vec<u64>,
    epoch: u64,
}

impl StampedMap {
    /// Starts a fresh mapping able to hold keys in `0..capacity`.
    pub(crate) fn begin(&mut self, capacity: usize) {
        if self.value.len() < capacity {
            self.value.resize(capacity, 0);
            self.stamp.resize(capacity, 0);
        }
        self.epoch += 1;
    }

    /// Inserts `key -> value` into the current epoch.
    #[inline]
    pub(crate) fn insert(&mut self, key: usize, value: usize) {
        self.value[key] = value;
        self.stamp[key] = self.epoch;
    }

    /// Whether `key` was inserted in the current epoch.
    #[inline]
    pub(crate) fn contains(&self, key: usize) -> bool {
        self.stamp[key] == self.epoch
    }

    /// The value inserted for `key` in the current epoch, if any.
    #[inline]
    pub(crate) fn get(&self, key: usize) -> Option<usize> {
        if self.stamp[key] == self.epoch {
            Some(self.value[key])
        } else {
            None
        }
    }
}

/// Scratch for [`crate::Graph::subgraph_in`]: the old-id → new-id stamp map
/// plus a pair buffer for the (rare) unsorted-subset row sort.
#[derive(Clone, Debug, Default)]
pub(crate) struct SubgraphScratch {
    pub(crate) map: StampedMap,
    pub(crate) row: Vec<(usize, EdgeWeight)>,
    /// Source adjacency entries read by extraction (each kept vertex's row,
    /// once per pass of the two-pass fill) over every extraction this
    /// scratch has served: a deterministic work count for scaling locks.
    pub(crate) row_scans: u64,
}

/// Scratch for heavy-edge-matching contraction: matching state, the shuffled
/// visit order, the two-hop pass's hub → parked-vertex slots,
/// per-coarse-vertex representatives, and the stamped map from coarse
/// neighbor to its position in the row being merged, which replaces the
/// `BTreeMap` merge.
#[derive(Clone, Debug, Default)]
pub(crate) struct CoarsenScratch {
    pub(crate) matched: Vec<Option<usize>>,
    pub(crate) order: Vec<usize>,
    pub(crate) parked: Vec<usize>,
    /// Fine vertices visited by matching (each level's whole vertex set,
    /// once per contraction) over every level this scratch has matched: a
    /// deterministic work count for scaling locks.
    pub(crate) match_visits: u64,
    pub(crate) rep: Vec<usize>,
    pub(crate) acc_pos: Vec<usize>,
    pub(crate) acc_stamp: Vec<u64>,
    pub(crate) acc_epoch: u64,
}

/// Scratch for FM refinement. `gain` and `ext` describe the committed
/// assignment of the current `refine_in_place` call: each vertex's gain and
/// its count of neighbors across the cut. They are built once per call and
/// kept current by replaying each accepted pass's kept moves. A pass works
/// on its own copy (`work_gain`) with lock bits, the indexed heap's
/// entry/position arrays, the move log, and the working assignment copy.
#[derive(Clone, Debug, Default)]
pub(crate) struct RefineScratch {
    pub(crate) gain: Vec<EdgeWeight>,
    pub(crate) ext: Vec<usize>,
    pub(crate) work_gain: Vec<EdgeWeight>,
    /// Adjacency entries read by gain builds over every refine call this
    /// scratch has served: a deterministic work count for scaling locks.
    pub(crate) gain_scans: u64,
    pub(crate) locked: Vec<bool>,
    /// Packed `(gain, vertex)` ordering keys (see `heap::heap_key`).
    pub(crate) heap: Vec<i128>,
    pub(crate) heap_pos: Vec<usize>,
    /// Candidate-heap seeds, pushes, updates and pops over every pass this
    /// scratch has run: a deterministic work count for work locks. Isolated
    /// vertices never enter the heap (an id cursor walks them), so passes
    /// over an edgeless graph make none.
    pub(crate) heap_ops: u64,
    pub(crate) log: Vec<usize>,
    pub(crate) work_side: Vec<u8>,
}

/// Scratch for greedy graph growing: per-trial side/gain buffers, the
/// per-dimension absorbed/target accumulators, and the candidate heap's
/// entry/position arrays.
#[derive(Clone, Debug, Default)]
pub(crate) struct InitialScratch {
    pub(crate) side: Vec<u8>,
    pub(crate) gain: Vec<EdgeWeight>,
    pub(crate) absorbed: Vec<f64>,
    pub(crate) target: Vec<f64>,
    /// Packed `(gain, vertex)` ordering keys (see `heap::heap_key`).
    pub(crate) heap: Vec<i128>,
    pub(crate) heap_pos: Vec<usize>,
    /// Candidate-heap pushes, updates and pops (each a touched vertex's
    /// entry, or its removal when absorbed) over every trial this scratch
    /// has run: a deterministic work count for scaling locks. Untouched
    /// gain-0 vertices never enter the heap, so an edgeless graph grows
    /// with none.
    pub(crate) heap_ops: u64,
    /// Untouched gain-0 vertices the id cursor absorbed instead of the
    /// heap, over the same trials. A trial's candidate takes are the
    /// heap's pops plus these, so `heap_ops + cursor_takes` counts every
    /// candidate-queue operation once.
    pub(crate) cursor_takes: u64,
    /// Growing trials run (the all-degenerate fallback's growth included)
    /// over every bisection this scratch has served: fewer than requested
    /// once trials stop at the cut floor.
    pub(crate) trials: u64,
    /// The trial being judged: its side weights, `[side 0 | side 1]`.
    pub(crate) sums: Vec<f64>,
    /// The bisection's side targets, `[side 0 | side 1]`.
    pub(crate) side_targets: Vec<f64>,
    /// The best feasible trial's sides so far; after the trials, the
    /// winner's.
    pub(crate) winner: Vec<u8>,
    /// The least-imbalanced trial's sides so far.
    pub(crate) least_imbalanced: Vec<u8>,
}

/// All scratch buffers the multilevel partitioner needs, bundled so one
/// value can be threaded through [`crate::recursive_bisect_in`] /
/// [`crate::partition_kway_in`] / [`crate::multilevel_bisect_in`] and
/// reused across calls (e.g. for every epoch of a simulation run). A fresh
/// `PartitionWorkspace::new()` per call gives the same result, only slower.
///
/// Create one per worker thread; the parallel recursion spawns a private
/// workspace for each forked branch automatically.
#[derive(Clone, Debug, Default)]
pub struct PartitionWorkspace {
    pub(crate) subgraph: SubgraphScratch,
    pub(crate) coarsen: CoarsenScratch,
    pub(crate) refine: RefineScratch,
    pub(crate) initial: InitialScratch,
    /// Ping-pong buffer for the uncoarsening projection in
    /// `multilevel_bisect_in`.
    pub(crate) projection: Vec<u8>,
}

impl PartitionWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        PartitionWorkspace::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_map_resets_in_o1() {
        let mut m = StampedMap::default();
        m.begin(8);
        m.insert(3, 7);
        assert!(m.contains(3));
        assert_eq!(m.get(3), Some(7));
        assert!(!m.contains(4));
        assert_eq!(m.get(4), None);
        m.begin(8);
        assert!(!m.contains(3), "new epoch must invalidate old entries");
        m.insert(3, 1);
        assert_eq!(m.get(3), Some(1));
    }

    #[test]
    fn stamped_map_grows() {
        let mut m = StampedMap::default();
        m.begin(2);
        m.insert(1, 5);
        m.begin(10);
        assert!(!m.contains(1));
        m.insert(9, 2);
        assert_eq!(m.get(9), Some(2));
    }
}
