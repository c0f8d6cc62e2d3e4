//! Deterministic sharded flow metering.
//!
//! The reference TCT math — the [`crate::latency`] model evaluated flow by
//! flow, kept as the oracle in this crate's tests (`tests/support`) — is a
//! clean executable spec, but it pays three per-flow costs the epoch driver
//! cannot afford at
//! fat-tree scale: a `BTreeMap` of link loads (log-time entry per crossed
//! uplink), a freshly allocated `Vec` of crossed uplinks per flow, and a
//! **second** LCA climb per flow when the TCT pass re-derives the links the
//! load pass already walked. This module replaces all three with dense
//! arrays and a reusable [`MeteringWorkspace`], and shards the flow list
//! across scoped worker threads without giving up bit-exact determinism.
//!
//! ## Shard/reduce contract
//!
//! Flows are cut into fixed-size chunks of
//! [`ParallelConfig::metering_chunk_flows`]. Each chunk independently
//! produces (a) a dense per-node link-load partial, (b) a per-flow
//! crossed-uplink table (one climb per flow, reused by the TCT pass), and
//! (c) weighted-TCT partial sums. Partials are then combined **in ascending
//! chunk order** on the calling thread. Because chunk boundaries depend only
//! on the chunk size — never on the thread count or the scheduler — the
//! floating-point association order of every metered quantity is a function
//! of the chunk size alone: runs at 1, 2, 4 and 8 threads are byte-identical
//! by construction, and a single-chunk run reproduces the reference path's
//! flow-order association bit-for-bit.
//!
//! Within a flow, crossed uplinks are visited in the reference path's exact
//! interleaved deepest-first order (a-side wins depth ties), replayed over
//! per-server ancestor chains precomputed once per call — so the per-flow
//! network sum associates identically to the reference path.
//!
//! Worker threads never share mutable state: each owns a disjoint
//! contiguous range of chunk scratches for the duration of a scope. If a
//! scope cannot run (a worker died), the engine recomputes every chunk on
//! the calling thread — same partials, same result — rather than panicking.

use goldilocks_partition::ParallelConfig;
use goldilocks_placement::Placement;
use goldilocks_topology::{DcTree, NodeId};
use goldilocks_workload::{Flow, Workload};

use crate::latency::LatencyModel;

/// Sentinel for an unplaced flow endpoint in the per-flow endpoint table.
const UNPLACED: u32 = u32::MAX;

/// Per-chunk scratch: everything one flow chunk produces in a metering pass.
///
/// All buffers are cleared (never shrunk) between epochs, so a warm
/// workspace performs no heap allocation.
#[derive(Debug, Default)]
struct ChunkScratch {
    /// Resolved server endpoints per flow in the chunk; [`UNPLACED`] marks a
    /// missing assignment (the flow is skipped, exactly as in the reference
    /// path).
    eps: Vec<(u32, u32)>,
    /// Offsets into `links` per flow in the chunk (length = flows + 1).
    offsets: Vec<u32>,
    /// Crossed-uplink node ids of every flow in the chunk, concatenated, in
    /// the reference interleaved climb order.
    links: Vec<u32>,
    /// Dense per-node link-load partial (Mbps), indexed by `NodeId`.
    loads: Vec<f64>,
    /// Weighted-TCT partial sum of the chunk's filtered flows.
    weighted: f64,
    /// Flow-count weight partial sum of the chunk's filtered flows.
    weight: f64,
    /// Per-flow `(tct_ms, weight)` samples of the chunk's filtered flows.
    tcts: Vec<(f64, f64)>,
}

/// Reusable scratch memory for the sharded metering engine.
///
/// One workspace serves one policy run: the epoch driver keeps it across
/// epochs so the per-server ancestor chains, the per-chunk scratches and the
/// combined link-load array are allocated once and reused. A warm call is
/// allocation-free (locked by `sim/tests/metering_alloc_lock.rs`).
#[derive(Debug, Default)]
pub struct MeteringWorkspace {
    /// CSR offsets of per-server ancestor chains (length = servers + 1).
    chain_off: Vec<u32>,
    /// Ancestor node ids, leaf NIC first, root last, all servers
    /// concatenated.
    chain_nodes: Vec<u32>,
    /// Depth of each entry of `chain_nodes` (avoids a tree lookup per climb
    /// step).
    chain_depths: Vec<u32>,
    /// Per-chunk scratches; grown on demand, inner buffers reused.
    chunks: Vec<ChunkScratch>,
    /// Combined dense link loads (Mbps), indexed by `NodeId`.
    loads: Vec<f64>,
}

impl MeteringWorkspace {
    /// An empty workspace; buffers grow to the scenario's high-water mark on
    /// first use and are reused afterwards.
    pub fn new() -> Self {
        MeteringWorkspace::default()
    }

    /// The combined dense link-load array of the most recent metering call,
    /// indexed by `NodeId`.
    pub fn link_loads_dense(&self) -> &[f64] {
        &self.loads
    }

    /// Rebuilds the per-server ancestor chains for `tree`. O(servers ×
    /// depth) with no allocation when warm — cheap enough to run every call,
    /// which keeps the workspace sound when the caller switches trees
    /// (the chaos driver meters fault-mutated working copies).
    fn build_chains(&mut self, tree: &DcTree) {
        self.chain_off.clear();
        self.chain_nodes.clear();
        self.chain_depths.clear();
        self.chain_off.push(0);
        for s in 0..tree.server_count() {
            let mut node = tree.server(goldilocks_topology::ServerId(s)).node;
            loop {
                self.chain_nodes.push(node.0 as u32);
                self.chain_depths.push(tree.node(node).depth as u32);
                match tree.node(node).parent {
                    Some(p) => node = p,
                    None => break,
                }
            }
            self.chain_off.push(self.chain_nodes.len() as u32);
        }
    }
}

/// How a metering pass is cut into chunks and workers.
#[derive(Clone, Copy, Debug)]
struct ShardPlan {
    /// Fixed chunk size in flows (association-order knob).
    chunk: usize,
    /// Number of chunks covering the flow list (≥ 1).
    n_chunks: usize,
    /// Worker threads to spawn (1 = run on the calling thread).
    workers: usize,
}

impl ShardPlan {
    fn for_flows(flows: usize, parallel: &ParallelConfig) -> ShardPlan {
        let chunk = parallel.metering_chunk();
        let n_chunks = flows.div_ceil(chunk).max(1);
        let workers = if parallel.threads <= 1 || flows < parallel.min_parallel_flows {
            1
        } else {
            parallel.threads.min(n_chunks)
        };
        ShardPlan {
            chunk,
            n_chunks,
            workers,
        }
    }

    /// The flow range of chunk `c`.
    fn flow_range(&self, c: usize, flows: usize) -> std::ops::Range<usize> {
        let lo = c * self.chunk;
        lo..flows.min(lo + self.chunk)
    }
}

/// Splits `scratches` into `workers` contiguous, balanced sub-slices and
/// returns them with the index of each sub-slice's first chunk. Only called
/// from [`run_sharded`], which is already an allocation boundary.
fn split_scratches(
    mut scratches: &mut [ChunkScratch],
    workers: usize,
) -> Vec<(usize, &mut [ChunkScratch])> {
    let total = scratches.len();
    let (base, extra) = (total / workers, total % workers);
    let mut out = Vec::with_capacity(workers);
    let mut start = 0;
    for w in 0..workers {
        let take = base + usize::from(w < extra);
        let (head, tail) = scratches.split_at_mut(take);
        out.push((start, head));
        start += take;
        scratches = tail;
    }
    out
}

/// Phase B for one worker's chunk range: per-flow TCT over the combined
/// loads, reusing the crossed-uplink table phase A stored — no second climb.
#[allow(clippy::too_many_arguments)]
fn fill_chunk_tcts<F>(
    model: &LatencyModel,
    workload: &Workload,
    tree: &DcTree,
    loads: &[f64],
    server_cpu_utils: &[f64],
    filter: &F,
    plan: &ShardPlan,
    first_chunk: usize,
    scratches: &mut [ChunkScratch],
    collect_samples: bool,
) where
    F: Fn(&Flow) -> bool + Sync,
{
    for (k, scratch) in scratches.iter_mut().enumerate() {
        let range = plan.flow_range(first_chunk + k, workload.flows.len());
        scratch.weighted = 0.0;
        scratch.weight = 0.0;
        scratch.tcts.clear();
        for (i, f) in workload.flows[range].iter().enumerate() {
            if !filter(f) {
                continue;
            }
            let (sa, sb) = scratch.eps[i];
            if sa == UNPLACED {
                continue;
            }
            let util = |s: u32| server_cpu_utils.get(s as usize).copied().unwrap_or(0.0);
            let rho = util(sa).max(util(sb)).min(model.server_queue_cap);
            let service = model.base_service_ms / (1.0 - rho);
            // Two accumulators, one per reference association order: the
            // mean path sums hops into `net` and adds `service` at the end
            // (as the reference mean does), the sample path folds hops into
            // a running `tct` seeded with `service` (as the reference
            // samples do). The orders differ at ulp level, and each must
            // reproduce its reference bit-for-bit.
            let mut net = 0.0;
            let mut tct = service;
            let (lo, hi) = (scratch.offsets[i] as usize, scratch.offsets[i + 1] as usize);
            for &node in &scratch.links[lo..hi] {
                let cap = tree.node(NodeId(node as usize)).uplink_mbps;
                let lr = if cap.is_finite() && cap > 0.0 {
                    (loads[node as usize] / cap).min(model.link_queue_cap)
                } else {
                    0.0
                };
                let hop = model.per_hop_ms / (1.0 - lr);
                net += hop;
                tct += hop;
            }
            let w = f.flow_count.max(1) as f64;
            scratch.weighted += (service + net) * w;
            scratch.weight += w;
            if collect_samples {
                scratch.tcts.push((tct, w));
            }
        }
    }
}

/// Runs `work(first_chunk, sub_slice)` over balanced contiguous chunk ranges
/// on `workers` scoped threads (or inline when `workers == 1`). If a worker
/// panicked mid-chunk, every chunk is deterministically recomputed on the
/// calling thread instead of propagating the panic, so the engine stays
/// panic-free and the partials stay exact.
// lint:allow(zero-alloc-hot-path) -- allocation boundary: thread-scope spawn
// and the O(workers) handle Vec; per-flow chunk fills stay allocation-free
fn run_sharded<W>(scratches: &mut [ChunkScratch], workers: usize, work: W)
where
    W: Fn(usize, &mut [ChunkScratch]) + Sync,
{
    if workers <= 1 || scratches.len() <= 1 {
        work(0, scratches);
        return;
    }
    let clean = {
        let parts = split_scratches(scratches, workers);
        let work = &work;
        std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .into_iter()
                .map(|(first, slice)| s.spawn(move || work(first, slice)))
                .collect();
            // Join every handle: the scope re-raises the panic of any
            // worker left unjoined, so a short-circuiting `all` would not do.
            let failed = handles
                .into_iter()
                .map(|h| h.join())
                .filter(Result::is_err)
                .count();
            failed == 0
        })
    };
    if !clean {
        // A worker died; its chunks may be half-filled. Recompute everything
        // inline — chunk partials are pure functions of their inputs, so the
        // result is identical to a clean parallel pass.
        work(0, scratches);
    }
}

/// One fully metered epoch: combined link loads (left in `ws`), the weighted
/// mean TCT, and optionally the per-flow samples.
// analyze:hot-path -- warm metering core: steady-state epochs must not allocate
#[allow(clippy::too_many_arguments)]
fn meter_flows<F>(
    model: &LatencyModel,
    workload: &Workload,
    placement: &Placement,
    tree: &DcTree,
    server_cpu_utils: &[f64],
    filter: &F,
    parallel: &ParallelConfig,
    ws: &mut MeteringWorkspace,
    collect_samples: bool,
) -> f64
where
    F: Fn(&Flow) -> bool + Sync,
{
    ws.build_chains(tree);
    let plan = ShardPlan::for_flows(workload.flows.len(), parallel);
    if ws.chunks.len() < plan.n_chunks {
        ws.chunks.resize_with(plan.n_chunks, ChunkScratch::default);
    }

    // Phase A: per-chunk link-load partials + crossed-uplink tables.
    {
        // Split-borrow: chain tables immutably, chunk scratches mutably.
        let MeteringWorkspace {
            chain_off,
            chain_nodes,
            chain_depths,
            chunks,
            ..
        } = ws;
        let chains = MeteringChains {
            chain_off,
            chain_nodes,
            chain_depths,
        };
        run_sharded(
            &mut chunks[..plan.n_chunks],
            plan.workers,
            |first, slice| {
                fill_chunk_loads(&chains, workload, placement, tree, &plan, first, slice);
            },
        );
    }

    // Reduce: combine per-chunk load partials in ascending chunk order.
    // (Adding a chunk that never touched a node contributes `+ 0.0`, which
    // is exact for the non-negative loads this model produces.)
    let node_count = tree.node_count();
    if ws.loads.len() != node_count {
        ws.loads.resize(node_count, 0.0);
    }
    ws.loads.fill(0.0);
    for c in &ws.chunks[..plan.n_chunks] {
        for (slot, partial) in ws.loads.iter_mut().zip(&c.loads) {
            *slot += *partial;
        }
    }

    // Phase B: per-chunk TCT partials over the combined loads.
    {
        let loads = &ws.loads;
        let chunks = &mut ws.chunks[..plan.n_chunks];
        run_sharded(chunks, plan.workers, |first, slice| {
            fill_chunk_tcts(
                model,
                workload,
                tree,
                loads,
                server_cpu_utils,
                filter,
                &plan,
                first,
                slice,
                collect_samples,
            );
        });
    }

    // Reduce: combine TCT partials in ascending chunk order.
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for c in &ws.chunks[..plan.n_chunks] {
        weighted += c.weighted;
        weight += c.weight;
    }
    if weight > 0.0 {
        weighted / weight
    } else {
        0.0
    }
}

/// Immutable view of the workspace's chain tables, shareable across worker
/// threads while the chunk scratches are mutably split.
#[derive(Clone, Copy)]
struct MeteringChains<'a> {
    chain_off: &'a [u32],
    chain_nodes: &'a [u32],
    chain_depths: &'a [u32],
}

impl MeteringChains<'_> {
    fn chain(&self, s: u32) -> (&[u32], &[u32]) {
        let lo = self.chain_off[s as usize] as usize;
        let hi = self.chain_off[s as usize + 1] as usize;
        (&self.chain_nodes[lo..hi], &self.chain_depths[lo..hi])
    }
}

/// Phase A for one worker's chunk range: resolve endpoints, climb each
/// flow's crossed uplinks once (reference interleaved order), and
/// accumulate the dense link-load partial.
fn fill_chunk_loads(
    chains: &MeteringChains<'_>,
    workload: &Workload,
    placement: &Placement,
    tree: &DcTree,
    plan: &ShardPlan,
    first_chunk: usize,
    scratches: &mut [ChunkScratch],
) {
    let node_count = tree.node_count();
    for (k, scratch) in scratches.iter_mut().enumerate() {
        let range = plan.flow_range(first_chunk + k, workload.flows.len());
        scratch.eps.clear();
        scratch.offsets.clear();
        scratch.links.clear();
        scratch.offsets.push(0);
        if scratch.loads.len() != node_count {
            scratch.loads.resize(node_count, 0.0);
        }
        scratch.loads.fill(0.0);
        for f in &workload.flows[range] {
            let (sa, sb) = match (
                placement.assignment.get(f.a.0).copied().flatten(),
                placement.assignment.get(f.b.0).copied().flatten(),
            ) {
                (Some(a), Some(b)) => (a.0 as u32, b.0 as u32),
                _ => (UNPLACED, UNPLACED),
            };
            scratch.eps.push((sa, sb));
            if sa != UNPLACED && sa != sb {
                let (ca, da) = chains.chain(sa);
                let (cb, db) = chains.chain(sb);
                let (mut ia, mut ib) = (0usize, 0usize);
                // The reference climb, replayed over precomputed chains:
                // deeper side first, a-side on depth ties, one push per
                // step. The bounds checks only trip on a malformed forest
                // (two roots); the reference path would panic there instead.
                while ia < ca.len() && ib < cb.len() && ca[ia] != cb[ib] {
                    let (la, lb) = (da[ia], db[ib]);
                    if la >= lb {
                        scratch.links.push(ca[ia]);
                        scratch.loads[ca[ia] as usize] += f.mbps;
                        ia += 1;
                    }
                    if lb > la {
                        scratch.links.push(cb[ib]);
                        scratch.loads[cb[ib] as usize] += f.mbps;
                        ib += 1;
                    }
                }
            }
            scratch.offsets.push(scratch.links.len() as u32);
        }
    }
}

/// Mean task completion time in ms over the flows selected by `filter`
/// (e.g. only Twitter-query flows), weighted by each flow's distinct-flow
/// count, leaving the combined dense link loads in `ws` (see
/// [`MeteringWorkspace::link_loads_dense`]). Returns 0 when no flow matches.
///
/// The model per flow: service happens at the busier endpoint (the
/// bottleneck), `service = base / (1 − ρ)` with ρ clamped at
/// `server_queue_cap` (servers beyond the utilization slice count as idle);
/// each crossed uplink adds `per_hop / (1 − load/cap)` with the link ratio
/// clamped at `link_queue_cap` (infinite/zero-capacity links cost the
/// unloaded hop). Unplaced endpoints are skipped.
///
/// Bit-identical at any thread count for a fixed
/// [`ParallelConfig::metering_chunk_flows`]; with
/// [`single_chunk_reference`] it reproduces the flow-order reference
/// association bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn mean_tct_ms_sharded<F>(
    model: &LatencyModel,
    workload: &Workload,
    placement: &Placement,
    tree: &DcTree,
    server_cpu_utils: &[f64],
    filter: F,
    parallel: &ParallelConfig,
    ws: &mut MeteringWorkspace,
) -> f64
where
    F: Fn(&Flow) -> bool + Sync,
{
    meter_flows(
        model,
        workload,
        placement,
        tree,
        server_cpu_utils,
        &filter,
        parallel,
        ws,
        false,
    )
}

/// Per-flow TCT samples `(tct_ms, weight)` for percentile analysis
/// (see [`crate::latency::tct_percentile_ms`]), same model as
/// [`mean_tct_ms_sharded`], in flow order (chunks
/// concatenated in ascending chunk order, flows in order within each
/// chunk — i.e. exactly the workload's flow order). Same determinism
/// contract as [`mean_tct_ms_sharded`].
#[allow(clippy::too_many_arguments)]
pub fn flow_tcts_ms_sharded<F>(
    model: &LatencyModel,
    workload: &Workload,
    placement: &Placement,
    tree: &DcTree,
    server_cpu_utils: &[f64],
    filter: F,
    parallel: &ParallelConfig,
    ws: &mut MeteringWorkspace,
) -> Vec<(f64, f64)>
where
    F: Fn(&Flow) -> bool + Sync,
{
    meter_flows(
        model,
        workload,
        placement,
        tree,
        server_cpu_utils,
        &filter,
        parallel,
        ws,
        true,
    );
    let plan = ShardPlan::for_flows(workload.flows.len(), parallel);
    let mut out = Vec::with_capacity(
        ws.chunks[..plan.n_chunks]
            .iter()
            .map(|c| c.tcts.len())
            .sum(),
    );
    for c in &ws.chunks[..plan.n_chunks] {
        out.extend_from_slice(&c.tcts);
    }
    out
}

/// A [`ParallelConfig`] that runs the metering engine as a single chunk on
/// the calling thread — the reference association order (flow order), for
/// one-off TCT evaluations outside the epoch driver.
pub fn single_chunk_reference() -> ParallelConfig {
    ParallelConfig {
        threads: 1,
        metering_chunk_flows: usize::MAX,
        ..ParallelConfig::default()
    }
}
