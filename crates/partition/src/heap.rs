//! The indexed max-heap of candidate vertices shared by FM refinement and
//! greedy graph growing.

use crate::graph::EdgeWeight;

/// Indexed max-heap of candidate vertices ordered by `(gain[v], Reverse(v))`:
/// highest gain first, lowest vertex id on ties.
///
/// Each vertex appears at most once: `pos[v]` tracks its slot (or
/// [`VertexHeap::ABSENT`]) so a gain change re-sifts the existing entry
/// instead of pushing a duplicate the way a lazy-deletion `BinaryHeap`
/// would. The pop order over *valid* candidates is exactly the lazy heap's
/// — every candidate always carries its current gain and the vertex id
/// breaks every tie, so the key order is total — which keeps the FM move
/// sequence and the greedy-growing absorb order (and therefore the
/// partition bytes) those of a plain argmax scan, without the stale-entry
/// churn of a lazy heap.
///
/// Entries store the `(gain, vertex)` ordering key packed into one `i128`
/// (gain in the high 64 bits, `!vertex` in the low 64), so sift comparisons
/// are a single integer compare on data already in the heap array instead
/// of an indirect `gain[heap[i]]` load per comparison. Both buffers are
/// borrowed from the caller's scratch, so a warm heap allocates nothing.
pub(crate) struct VertexHeap<'a> {
    heap: &'a mut Vec<i128>,
    pos: &'a mut Vec<usize>,
    /// Entries seeded by [`VertexHeap::seed`] plus calls to
    /// [`VertexHeap::push_or_update`] and [`VertexHeap::pop`] — a
    /// deterministic work count, independent of the machine.
    ops: u64,
}

/// An ascending id cursor over the candidates a [`VertexHeap`] leaves out
/// because their gain is 0 and stays 0 until they enter the heap: the
/// outside vertices no absorption has touched in greedy growing, the
/// isolated vertices of an FM repair pass. Those candidates pop from a full
/// heap in plain id order, so the cursor serves them without sorting them.
/// [`IdCursor::take`] merges the two sources in exactly the
/// `(gain, Reverse(v))` order a heap holding every candidate pops.
pub(crate) struct IdCursor {
    next: usize,
    end: usize,
    /// Candidates served by the cursor rather than the heap.
    takes: u64,
}

impl IdCursor {
    /// A cursor over the ids `0..end` (`end` = 0 serves nothing).
    pub(crate) fn new(end: usize) -> Self {
        IdCursor {
            next: 0,
            end,
            takes: 0,
        }
    }

    /// Removes and returns the next candidate: the heap top, or the
    /// cursor's lowest id `v` with `!held(heap, v)` — a gain-0 candidate —
    /// whichever ranks higher. `held` marks the ids that are not cursor
    /// candidates (taken already, or in the heap); once held, an id must
    /// stay held.
    pub(crate) fn take(
        &mut self,
        heap: &mut VertexHeap<'_>,
        held: impl Fn(&VertexHeap<'_>, usize) -> bool,
    ) -> Option<usize> {
        while self.next < self.end && held(heap, self.next) {
            self.next += 1;
        }
        let idle = (self.next < self.end).then_some(self.next);
        if let Some(top) = heap.peek() {
            if idle.is_none_or(|v| top > heap_key(0, v)) {
                return heap.pop();
            }
        }
        let v = idle?;
        self.next += 1;
        self.takes += 1;
        Some(v)
    }

    /// Candidates served by the cursor so far.
    pub(crate) fn takes(&self) -> u64 {
        self.takes
    }
}

/// Packs the ordering key: lexicographically `(gain asc, vertex desc)`,
/// i.e. `(gain, Reverse(vertex))`, as one `i128`. With the high 64 bits
/// holding the signed gain and the low 64 holding `!vertex` (unsigned),
/// two's-complement `i128` ordering compares gain first and breaks exact
/// gain ties toward the smaller vertex id.
#[inline]
pub(crate) fn heap_key(gain: EdgeWeight, v: usize) -> i128 {
    ((gain as i128) << 64) | (!(v as u64)) as i128
}

/// Recovers the vertex id from a packed heap key.
#[inline]
pub(crate) fn heap_vertex(key: i128) -> usize {
    (!(key as u64)) as usize
}

impl<'a> VertexHeap<'a> {
    const ABSENT: usize = usize::MAX;

    /// An empty heap over vertices `0..n`, reusing the caller's buffers.
    pub(crate) fn new(heap: &'a mut Vec<i128>, pos: &'a mut Vec<usize>, n: usize) -> Self {
        heap.clear();
        pos.clear();
        pos.resize(n, Self::ABSENT);
        VertexHeap { heap, pos, ops: 0 }
    }

    /// Fills the empty heap with `(gain, v)` for distinct vertices `v` in
    /// one bottom-up heapify: O(B) for B entries instead of B sifting
    /// pushes. Pops follow the total key whatever the layout, so the pop
    /// order is exactly that of pushing the same entries one by one.
    pub(crate) fn seed(&mut self, entries: impl IntoIterator<Item = (EdgeWeight, usize)>) {
        debug_assert!(self.heap.is_empty(), "seed fills an empty heap");
        for (gain, v) in entries {
            debug_assert_eq!(self.pos[v], Self::ABSENT, "vertex {v} seeded twice");
            self.ops += 1;
            self.pos[v] = self.heap.len();
            self.heap.push(heap_key(gain, v));
        }
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    /// Inserts `v`, or re-sifts it if already present (its gain changed,
    /// up or down).
    pub(crate) fn push_or_update(&mut self, gain: EdgeWeight, v: usize) {
        self.ops += 1;
        let key = heap_key(gain, v);
        let i = self.pos[v];
        if i == Self::ABSENT {
            self.heap.push(key);
            self.pos[v] = self.heap.len() - 1;
            self.sift_up(self.heap.len() - 1);
        } else {
            self.heap[i] = key;
            let i = self.sift_up(i);
            self.sift_down(i);
        }
    }

    /// Removes and returns the highest-ranked vertex.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        self.ops += 1;
        let top = heap_vertex(*self.heap.first()?);
        self.pos[top] = Self::ABSENT;
        let last = self.heap.pop()?;
        if let Some(slot) = self.heap.first_mut() {
            *slot = last;
            self.pos[heap_vertex(last)] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// The highest-ranked entry's packed key, without removing it.
    pub(crate) fn peek(&self) -> Option<i128> {
        self.heap.first().copied()
    }

    /// Whether `v` is in the heap.
    pub(crate) fn contains(&self, v: usize) -> bool {
        self.pos[v] != Self::ABSENT
    }

    /// Seeds, pushes, updates and pops made so far.
    pub(crate) fn ops(&self) -> u64 {
        self.ops
    }

    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i] > self.heap[parent] {
                self.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
        i
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let mut best = i;
            for child in [2 * i + 1, 2 * i + 2] {
                if child < self.heap.len() && self.heap[child] > self.heap[best] {
                    best = child;
                }
            }
            if best == i {
                return;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[heap_vertex(self.heap[i])] = i;
        self.pos[heap_vertex(self.heap[j])] = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Pops come out in `(gain desc, id asc)` order after a bulk seed of
        /// distinct vertices followed by arbitrary inserts and gain changes
        /// in both directions.
        #[test]
        fn pops_follow_gain_then_lowest_id(
            seed_gain in proptest::collection::vec(-50i64..50, 32),
            keep in proptest::collection::vec(any::<bool>(), 32),
            updates in proptest::collection::vec((0usize..32, -50i64..50), 0..128),
        ) {
            let (mut buf, mut pos) = (Vec::new(), Vec::new());
            let mut heap = VertexHeap::new(&mut buf, &mut pos, 32);
            let mut gain = [None; 32];
            heap.seed((0..32).filter(|&v| keep[v]).map(|v| (seed_gain[v], v)));
            for v in (0..32).filter(|&v| keep[v]) {
                gain[v] = Some(seed_gain[v]);
            }
            for &(v, g) in &updates {
                heap.push_or_update(g, v);
                gain[v] = Some(g);
            }
            let mut expected: Vec<(EdgeWeight, usize)> = gain
                .iter()
                .enumerate()
                .filter_map(|(v, g)| g.map(|g| (g, v)))
                .collect();
            expected.sort_by_key(|&(g, v)| (std::cmp::Reverse(g), v));
            let popped: Vec<usize> = std::iter::from_fn(|| heap.pop()).collect();
            let expected: Vec<usize> = expected.into_iter().map(|(_, v)| v).collect();
            prop_assert_eq!(popped, expected);
        }
    }
}
