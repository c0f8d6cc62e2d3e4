//! Demand-proportional container grouping.
//!
//! Strict recursive bisection stops only at power-of-two-ish leaf counts:
//! splitting until every group fits yields 8 or 16 groups, never 9. The
//! paper's Fig. 7/9 show group counts tracking the actual demand (9 servers
//! for ~6.3 servers' worth of load at the 70 % cap), which METIS achieves by
//! splitting with proportional target fractions. We reproduce that: compute
//! `k = ceil(worst-dimension demand / cap)` and run the k-way partitioner
//! (whose recursive splits use proportional fractions), then locally
//! re-bisect any group that still overflows the cap.

use goldilocks_partition::{
    partition_kway_in, recursive_bisect_in, BisectConfig, Graph, PartitionWorkspace, VertexWeight,
};
use goldilocks_placement::PlaceError;

/// Partitions `graph` into locality-ordered groups whose aggregate weight
/// fits `cap` per group. Consecutive groups are partition-tree siblings, so
/// assigning them to consecutive servers preserves locality.
///
/// # Errors
///
/// Returns [`PlaceError::Infeasible`] when a single vertex exceeds the cap
/// or the partitioner fails.
pub fn partition_into_groups(
    graph: &Graph,
    cap: &VertexWeight,
    config: &BisectConfig,
) -> Result<Vec<Vec<usize>>, PlaceError> {
    let m = graph.vertex_count();
    if m == 0 {
        return Ok(Vec::new());
    }
    let total = graph.total_vertex_weight();
    let mut k = 1usize;
    for d in 0..cap.dims() {
        let c = cap.component(d);
        if c <= 0.0 {
            if total.component(d) > 0.0 {
                return Err(PlaceError::Infeasible {
                    reason: format!("capacity dimension {d} is zero"),
                });
            }
            continue;
        }
        k = k.max((total.component(d) / c).ceil() as usize);
    }
    let k = k.clamp(1, m);

    // One workspace serves the k-way pass and every local re-split below.
    let mut ws = PartitionWorkspace::new();
    let labels =
        partition_kway_in(graph, k, config, &mut ws).map_err(|e| PlaceError::Infeasible {
            reason: format!("k-way partitioning: {e}"),
        })?;
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (v, &g) in labels.iter().enumerate() {
        groups[g].push(v);
    }

    // Proportional splitting balances in expectation; tolerance can leave a
    // group slightly over the cap. First repair overflows by shifting the
    // smallest vertices into neighboring groups with headroom (adjacent
    // groups are partition-tree siblings, so the locality damage is small
    // and the group count — hence server count — stays at k).
    repair_overflows(graph, cap, &mut groups);

    // Any group still over the cap is re-bisected locally (its pieces stay
    // adjacent in the output, preserving sibling locality).
    let mut out = Vec::with_capacity(k);
    for group in groups {
        if group.is_empty() {
            continue;
        }
        let w = graph.subset_weight(&group);
        if w.fits_within(cap) {
            out.push(group);
            continue;
        }
        // `repair_overflows` may have appended out-of-order vertices, so the
        // group is not necessarily sorted; `subgraph_in` still yields sorted
        // CSR rows and maps subgraph vertex `i` back to `group[i]`.
        let sub = graph.subgraph_in(&group, &mut ws);
        let tree =
            recursive_bisect_in(&sub, |gw| gw.fits_within(cap), config, &mut ws).map_err(|e| {
                PlaceError::Infeasible {
                    reason: format!("group re-split: {e}"),
                }
            })?;
        for leaf in tree.leaves() {
            out.push(leaf.vertices.iter().map(|&v| group[v]).collect());
        }
    }
    Ok(out)
}

/// Moves vertices out of over-cap groups into groups with headroom,
/// preferring adjacent groups (tree siblings). Bounded at one pass over the
/// vertex population; groups that cannot be repaired are left for re-split.
fn repair_overflows(graph: &Graph, cap: &VertexWeight, groups: &mut [Vec<usize>]) {
    let k = groups.len();
    if k < 2 {
        return;
    }
    let mut weights: Vec<VertexWeight> = groups.iter().map(|g| graph.subset_weight(g)).collect();
    let mut budget = graph.vertex_count();
    for g in 0..k {
        while !weights[g].fits_within(cap) && budget > 0 {
            budget -= 1;
            // Smallest vertex of the group (least locality damage, most
            // likely to fit elsewhere).
            let ratio = |v: usize| VertexWeight::max_ratio_slice(graph.vertex_weight_slice(v), cap);
            let Some((pos, &v)) = groups[g]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| ratio(**a).total_cmp(&ratio(**b)))
            else {
                break;
            };
            let vw = graph.vertex_weight(v);
            let target = repair_targets(g, k).find(|&t| weights[t].sum_fits_within(&vw, cap));
            match target {
                Some(t) => {
                    groups[g].remove(pos);
                    weights[g].sub_assign(&vw);
                    groups[t].push(v);
                    weights[t].add_assign(&vw);
                }
                None => break, // no headroom anywhere; re-split will handle it
            }
        }
    }
}

/// The groups `repair_overflows` tries, in order, for a vertex leaving group
/// `g` of `k`: the neighbors `g - 1` and `g + 1` first, then every other
/// group in ascending order. Walked lazily, so a move that finds room next
/// door costs O(1) rather than O(k).
fn repair_targets(g: usize, k: usize) -> impl Iterator<Item = usize> {
    let neighbors = [g.checked_sub(1), Some(g + 1).filter(|&t| t < k)];
    neighbors
        .into_iter()
        .flatten()
        .chain((0..k).filter(move |t| t.abs_diff(g) > 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_partition::GraphBuilder;
    use proptest::prelude::*;

    /// `repair_overflows` as it was with an explicit candidate list: each
    /// move collects the targets into a `Vec`, de-duplicating with
    /// `contains` (O(k^2) per move), and clones a weight per candidate.
    /// Kept as the oracle for the lazy walk.
    fn repair_overflows_reference(graph: &Graph, cap: &VertexWeight, groups: &mut [Vec<usize>]) {
        let k = groups.len();
        if k < 2 {
            return;
        }
        let mut weights: Vec<VertexWeight> =
            groups.iter().map(|g| graph.subset_weight(g)).collect();
        let mut budget = graph.vertex_count();
        for g in 0..k {
            while !weights[g].fits_within(cap) && budget > 0 {
                budget -= 1;
                let Some((pos, &v)) = groups[g].iter().enumerate().min_by(|(_, a), (_, b)| {
                    let ra = graph.vertex_weight(**a).max_ratio(cap);
                    let rb = graph.vertex_weight(**b).max_ratio(cap);
                    ra.total_cmp(&rb)
                }) else {
                    break;
                };
                let vw = graph.vertex_weight(v);
                let mut candidates: Vec<usize> = Vec::with_capacity(k - 1);
                if g > 0 {
                    candidates.push(g - 1);
                }
                if g + 1 < k {
                    candidates.push(g + 1);
                }
                for t in 0..k {
                    if t != g && !candidates.contains(&t) {
                        candidates.push(t);
                    }
                }
                let target = candidates.into_iter().find(|&t| {
                    let mut wt = weights[t].clone();
                    wt.add_assign(&vw);
                    wt.fits_within(cap)
                });
                match target {
                    Some(t) => {
                        groups[g].remove(pos);
                        weights[g].sub_assign(&vw);
                        groups[t].push(v);
                        weights[t].add_assign(&vw);
                    }
                    None => break,
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The lazy target walk moves the same vertices to the same groups
        /// as the candidate-list oracle: random 1–3 dimension weights,
        /// random group labels over k up to 300, and caps from well below
        /// to well above the mean group weight (so some repairs find room
        /// next door, some far away, and some nowhere).
        #[test]
        fn lazy_repair_matches_candidate_list_oracle(
            (k, weights, labels, cap_scale) in (2usize..=300, 1usize..=3).prop_flat_map(|(k, dims)| {
                (k..=3 * k).prop_flat_map(move |n| (
                    Just(k),
                    proptest::collection::vec(proptest::collection::vec(0.1f64..5.0, dims), n),
                    proptest::collection::vec(0..k, n),
                    proptest::collection::vec(0.5f64..1.6, dims),
                ))
            }),
        ) {
            let dims = cap_scale.len();
            let mut b = GraphBuilder::new(dims);
            for w in &weights {
                b.add_vertex(VertexWeight::new(w.clone()));
            }
            let g = b.build().unwrap();
            let total = g.total_vertex_weight();
            let cap = VertexWeight::new(
                (0..dims)
                    .map(|d| total.component(d) / k as f64 * cap_scale[d])
                    .collect::<Vec<_>>(),
            );
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (v, &l) in labels.iter().enumerate() {
                groups[l].push(v);
            }
            let mut expected = groups.clone();
            repair_overflows_reference(&g, &cap, &mut expected);
            repair_overflows(&g, &cap, &mut groups);
            prop_assert_eq!(groups, expected);
        }
    }

    fn uniform_graph(n: usize, weight: f64) -> Graph {
        let mut b = GraphBuilder::new(1);
        for _ in 0..n {
            b.add_vertex(VertexWeight::new([weight]));
        }
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn group_count_tracks_demand_not_powers_of_two() {
        // 18 unit vertices, cap 2.0 → exactly 9 groups (not 16).
        let g = uniform_graph(18, 1.0);
        let cap = VertexWeight::new([2.0]);
        let groups = partition_into_groups(&g, &cap, &BisectConfig::default()).unwrap();
        assert_eq!(
            groups.len(),
            9,
            "sizes: {:?}",
            groups.iter().map(Vec::len).collect::<Vec<_>>()
        );
        for gr in &groups {
            assert!(g.subset_weight(gr).fits_within(&cap));
        }
    }

    #[test]
    fn all_vertices_covered_once() {
        let g = uniform_graph(25, 1.0);
        let cap = VertexWeight::new([4.0]);
        let groups = partition_into_groups(&g, &cap, &BisectConfig::default()).unwrap();
        let mut seen = [false; 25];
        for gr in &groups {
            for &v in gr {
                assert!(!seen[v]);
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(groups.len(), 7, "ceil(25/4) = 7");
    }

    #[test]
    fn single_group_when_everything_fits() {
        let g = uniform_graph(5, 1.0);
        let cap = VertexWeight::new([10.0]);
        let groups = partition_into_groups(&g, &cap, &BisectConfig::default()).unwrap();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 5);
    }

    #[test]
    fn oversized_vertex_is_infeasible() {
        let g = uniform_graph(3, 5.0);
        let cap = VertexWeight::new([2.0]);
        let err = partition_into_groups(&g, &cap, &BisectConfig::default()).unwrap_err();
        assert!(matches!(err, PlaceError::Infeasible { .. }));
    }

    #[test]
    fn empty_graph_gives_no_groups() {
        let g = GraphBuilder::new(1).build().unwrap();
        let cap = VertexWeight::new([1.0]);
        let groups = partition_into_groups(&g, &cap, &BisectConfig::default()).unwrap();
        assert!(groups.is_empty());
    }
}
