//! Allocation-regression lock for the partitioner hot path.
//!
//! A counting global allocator measures how many heap allocations one warm
//! `partition_kway_in` call performs on a fixed 512-vertex graph. The
//! workspace refactor moved all scratch memory out of the inner loops, so
//! the remaining allocations are only real outputs (subgraph CSR arrays,
//! coarse levels, label vectors). The ceiling is deliberately generous —
//! partition shapes (and hence recursion sizes) vary with the RNG stream —
//! but it is far below the pre-refactor count, so reintroducing per-call
//! scratch allocation trips the lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use goldilocks_partition::{
    multilevel_bisect_in, partition_kway_in, BisectConfig, GraphBuilder, PartitionWorkspace,
    VertexWeight,
};
use goldilocks_rng::SplitMix64;

/// Counts allocation events (alloc + realloc) per thread; delegates to the
/// system allocator.
struct CountingAlloc;

thread_local! {
    /// This thread's allocation events. The test harness allocates on its
    /// own threads while a test runs, and sibling tests run in parallel, so
    /// a process-wide count would charge their allocations to whichever
    /// window is being measured. The measured paths are sequential: every
    /// allocation they make lands on the measuring thread.
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: the slot is unavailable while a thread is torn down.
    let _ = ALLOC_CALLS.try_with(|calls| calls.set(calls.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Allocation events made so far on the calling thread.
fn alloc_count() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

/// A deterministic 512-vertex, 3-dimension graph: a connectivity ring plus
/// seeded random extra edges.
fn fixed_graph() -> goldilocks_partition::Graph {
    const N: usize = 512;
    let mut b = GraphBuilder::new(3);
    for v in 0..N {
        let f = |salt: usize| 0.1 + ((v * 31 + salt * 17) % 97) as f64 / 97.0;
        b.add_vertex(VertexWeight::new([f(1), f(2), f(3)]));
    }
    for v in 0..N {
        b.add_edge(v, (v + 1) % N, 1 + (v % 7) as i64);
    }
    let mut rng = SplitMix64::seed_from_u64(1);
    for _ in 0..N * 3 {
        let (u, v) = (rng.range(0..N), rng.range(0..N));
        let w = 1 + rng.below(40) as i64;
        if u != v {
            b.add_edge(u, v, w);
        }
    }
    b.build().expect("fixture graph is valid")
}

#[test]
fn warm_partition_kway_allocation_lock() {
    let graph = fixed_graph();
    let cfg = BisectConfig::default();
    let mut ws = PartitionWorkspace::new();

    // Warm the workspace to its high-water mark (two calls: the second can
    // still grow buffers if the first's recursion shapes were smaller).
    let cold = partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");
    partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");

    let before = alloc_count();
    let warm = partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");
    let warm_allocs = alloc_count() - before;

    assert_eq!(cold, warm, "workspace reuse must not change the labeling");

    // Outputs still allocate (subgraphs, coarse levels, label vectors), but
    // scratch no longer does. Observed ~1.3k warm allocations for this
    // fixture; the ceiling leaves slack for RNG-stream and allocator-shim
    // differences across toolchains while still catching a return of the
    // ~20x pre-refactor behavior.
    const CEILING: u64 = 6_000;
    assert!(
        warm_allocs <= CEILING,
        "warm partition_kway_in allocated {warm_allocs} times (ceiling {CEILING}); \
         scratch allocation crept back into the hot path"
    );
}

#[test]
fn workspace_reuse_allocates_less_than_fresh_calls() {
    let graph = fixed_graph();
    let cfg = BisectConfig::default();

    let mut ws = PartitionWorkspace::new();
    partition_kway_in(&graph, 12, &cfg, &mut ws).expect("warmup");

    let before = alloc_count();
    partition_kway_in(&graph, 12, &cfg, &mut ws).expect("warm call");
    let warm = alloc_count() - before;

    let before = alloc_count();
    partition_kway_in(&graph, 12, &cfg, &mut PartitionWorkspace::new()).expect("fresh call");
    let fresh = alloc_count() - before;

    assert!(
        warm < fresh,
        "a warm workspace call ({warm} allocs) must beat a fresh one ({fresh})"
    );
}

/// An edgeless `n`-vertex, 3-dimension graph whose demands trend with the
/// vertex id — the shape of a serving commit's tenants, where growing takes
/// every vertex from the id cursor and FM repairs lopsided regions.
fn edgeless_graph(n: usize) -> goldilocks_partition::Graph {
    let mut b = GraphBuilder::new(3);
    for v in 0..n {
        let t = v as f64 / n as f64;
        b.add_vertex(VertexWeight::new([
            1.0 + t,
            2.0 - t,
            0.5 + (v % 7) as f64 / 7.0,
        ]));
    }
    b.build().expect("fixture graph is valid")
}

/// A warm k-way pass over an edgeless graph allocates only its outputs,
/// whose count follows the recursion (k − 1 bisections), not the vertex
/// count: observed 326 allocations at n = 2 000 and 406 at 8 000 (577 and
/// 661 while growing trials built a balance tracker each and cloned every
/// new leader).
#[test]
fn warm_edgeless_partition_kway_allocation_lock() {
    const CEILING: u64 = 500;
    let cfg = BisectConfig::default();
    let mut counts = Vec::new();
    for n in [2_000, 8_000] {
        let graph = edgeless_graph(n);
        let mut ws = PartitionWorkspace::new();
        let cold = partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");
        partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");

        let before = alloc_count();
        let warm = partition_kway_in(&graph, 12, &cfg, &mut ws).expect("k=12 partitions");
        counts.push(alloc_count() - before);
        assert_eq!(cold, warm, "workspace reuse must not change the labeling");
    }
    let (small, large) = (counts[0], counts[1]);
    assert!(
        large <= CEILING,
        "warm edgeless partition_kway_in allocated {large} times (ceiling {CEILING})"
    );
    assert!(
        2 * large <= 3 * small,
        "4x the vertices took {small} -> {large} warm allocations; \
         per-vertex allocation crept into the hot path"
    );
}

/// A warm bisection that neither coarsens nor refines is its greedy-growing
/// trials alone, and they allocate exactly once — the side they return —
/// however many trials run: each trial is judged from side sums kept in
/// the scratch, and each new leader is copied into a scratch buffer.
#[test]
fn growing_trials_allocate_only_the_returned_side() {
    // A ring, so every bisection cuts at least two edges, above the cut
    // floor of 0: every requested trial runs.
    let graph = fixed_graph();
    let mut counts = Vec::new();
    for trials in [1, 4, 16, 64] {
        let cfg = BisectConfig {
            coarsen_to: usize::MAX,
            initial_trials: trials,
            refine_passes: 0,
            ..BisectConfig::default()
        };
        let mut ws = PartitionWorkspace::new();
        let cold = multilevel_bisect_in(&graph, 0.5, &cfg, &mut ws);
        let before = alloc_count();
        let warm = multilevel_bisect_in(&graph, 0.5, &cfg, &mut ws);
        counts.push(alloc_count() - before);
        assert_eq!(
            cold.side, warm.side,
            "workspace reuse must not change the sides"
        );
    }
    assert_eq!(
        counts,
        [1, 1, 1, 1],
        "warm growing at 1, 4, 16 and 64 trials allocated {counts:?} times"
    );
}
