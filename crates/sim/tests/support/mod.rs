//! Reference oracles shared by the sim test suites, kept here as
//! executable specs rather than in the library:
//!
//! - the metering math: the [`LatencyModel`] evaluated flow by flow with
//!   `BTreeMap` link loads, one LCA climb per flow per pass, and flow-order
//!   accumulation. The sharded engine (`goldilocks_sim::metering`) must
//!   reproduce it bit for bit when run as a single chunk;
//! - the epoch loop: [`reference_run`] places, meters and costs each epoch
//!   the way `run_policy_with` did before it became a fault-free
//!   `ChaosDriver` run, which must reproduce it bit for bit.
//!
//! Each test binary uses a subset of these.
#![allow(dead_code)]

use std::collections::BTreeMap;

use goldilocks_cluster::{migration_plan, PowerGate};
use goldilocks_core::{
    rung_configs, Goldilocks, GoldilocksAsym, IncrementalGoldilocks, Ladder, Rung,
};
use goldilocks_placement::{Borg, EPvm, Mpp, PlaceError, Placement, Placer, RcInformed};
use goldilocks_sim::epoch::{
    epoch_workload_into, EpochRecord, Policy, PolicyRun, Scenario, CLIENT_CONCURRENCY,
};
use goldilocks_sim::{
    mean_tct_ms_sharded, meter_with_utils, LatencyModel, MeteringWorkspace, ParallelConfig,
    PowerSample,
};
use goldilocks_topology::{DcTree, NodeId, Resources, ServerId};
use goldilocks_workload::{Flow, Workload, WorkloadArena};

/// Traffic crossing each tree node's uplink, in Mbps.
///
/// For every flow between containers on different servers, the crossed links
/// are the uplinks of both endpoint chains below their lowest common
/// ancestor (a 2-hop rack path crosses both server NIC uplinks; a cross-pod
/// path also crosses rack and pod uplinks). Unplaced endpoints are skipped.
pub fn link_loads(
    workload: &Workload,
    placement: &Placement,
    tree: &DcTree,
) -> BTreeMap<NodeId, f64> {
    let mut loads: BTreeMap<NodeId, f64> = BTreeMap::new();
    for f in &workload.flows {
        let (Some(sa), Some(sb)) = (
            placement.assignment.get(f.a.0).copied().flatten(),
            placement.assignment.get(f.b.0).copied().flatten(),
        ) else {
            continue;
        };
        if sa == sb {
            continue;
        }
        for node in crossed_uplinks(tree, sa, sb) {
            *loads.entry(node).or_insert(0.0) += f.mbps;
        }
    }
    loads
}

/// The tree nodes whose uplink the `a`→`b` path crosses: deepest side
/// first, `a` winning depth ties.
pub fn crossed_uplinks(tree: &DcTree, a: ServerId, b: ServerId) -> Vec<NodeId> {
    let mut na = tree.server(a).node;
    let mut nb = tree.server(b).node;
    let mut crossed = Vec::new();
    while na != nb {
        let (da, db) = (tree.node(na).depth, tree.node(nb).depth);
        if da >= db {
            crossed.push(na);
            na = tree.node(na).parent.expect("non-root");
        }
        if db > da {
            crossed.push(nb);
            nb = tree.node(nb).parent.expect("non-root");
        }
    }
    crossed
}

/// Weighted mean TCT over every flow, and the per-flow `(tct, weight)`
/// samples, in flow order: [`link_loads`] first, then a second climb per
/// flow, `net` summed apart from `service` for the mean and hops folded
/// into a running `tct` for the samples.
pub fn tct_oracle(
    m: &LatencyModel,
    w: &Workload,
    p: &Placement,
    tree: &DcTree,
    utils: &[f64],
) -> (f64, Vec<(f64, f64)>) {
    let loads = link_loads(w, p, tree);
    let mut weighted = 0.0;
    let mut weight = 0.0;
    let mut samples = Vec::new();
    for f in &w.flows {
        let (Some(sa), Some(sb)) = (
            p.assignment.get(f.a.0).copied().flatten(),
            p.assignment.get(f.b.0).copied().flatten(),
        ) else {
            continue;
        };
        let util = |s: ServerId| utils.get(s.0).copied().unwrap_or(0.0);
        let rho = util(sa).max(util(sb)).min(m.server_queue_cap);
        let service = m.base_service_ms / (1.0 - rho);
        let mut net = 0.0;
        let mut tct = service;
        if sa != sb {
            for node in crossed_uplinks(tree, sa, sb) {
                let cap = tree.node(node).uplink_mbps;
                let lr = if cap.is_finite() && cap > 0.0 {
                    (loads.get(&node).copied().unwrap_or(0.0) / cap).min(m.link_queue_cap)
                } else {
                    0.0
                };
                let hop = m.per_hop_ms / (1.0 - lr);
                net += hop;
                tct += hop;
            }
        }
        let fw = f.flow_count.max(1) as f64;
        weighted += (service + net) * fw;
        weight += fw;
        samples.push((tct, fw));
    }
    let mean = if weight > 0.0 { weighted / weight } else { 0.0 };
    (mean, samples)
}

/// The policy's degradation ladder, as the library builds it: Goldilocks
/// variants get their `rung_configs`; the baselines use their relaxed form
/// (100 % caps, or 150 % CPU oversubscription for RC-Informed) on both
/// relaxed rungs.
fn ladder(policy: &Policy, scenario: &Scenario) -> Ladder<Box<dyn Placer>> {
    fn boxed<P: Placer + 'static>(rungs: [P; 3]) -> Ladder<Box<dyn Placer>> {
        Ladder::new(rungs.map(|p| Box::new(p) as Box<dyn Placer>))
    }
    fn relaxed_twice<P: Placer + Clone + 'static>(
        primary: P,
        relaxed: P,
    ) -> Ladder<Box<dyn Placer>> {
        boxed([primary, relaxed.clone(), relaxed])
    }
    match policy {
        Policy::EPvm => relaxed_twice(EPvm::new(), EPvm { max_util: 1.0 }),
        Policy::Mpp => {
            let model = scenario.power.server.clone();
            relaxed_twice(
                Mpp::new(model.clone()),
                Mpp {
                    model,
                    max_util: 1.0,
                },
            )
        }
        Policy::Borg => relaxed_twice(Borg::new(), Borg { max_util: 1.0 }),
        Policy::RcInformed => {
            let reservations: Vec<_> = scenario
                .base
                .containers
                .iter()
                .map(|c| {
                    Resources::new(
                        c.demand.cpu * scenario.reservation_factor,
                        c.demand.memory_gb,
                        c.demand.network_mbps,
                    )
                })
                .collect();
            let mut relaxed = RcInformed::with_reservations(reservations.clone());
            relaxed.cpu_oversubscription = 1.5;
            relaxed_twice(RcInformed::with_reservations(reservations), relaxed)
        }
        Policy::Goldilocks(cfg) => boxed(rung_configs(cfg).map(Goldilocks::with_config)),
        Policy::GoldilocksAsym(cfg) => boxed(rung_configs(cfg).map(GoldilocksAsym::with_config)),
        Policy::GoldilocksIncremental(cfg, sticky) => {
            boxed(rung_configs(cfg).map(|c| IncrementalGoldilocks::with_config(c, *sticky)))
        }
    }
}

/// Power, latency and utilization of one epoch under one placement.
struct EpochMetrics {
    sample: PowerSample,
    boot_watts: f64,
    tct_ms: f64,
    mean_cpu_util: f64,
}

/// Steps the power gate toward the placement's active set (with the boot
/// surcharge for servers powered on this epoch), then meters power, mean
/// TCT and mean active CPU utilization.
fn meter_epoch(
    scenario: &Scenario,
    w: &Workload,
    placement: &Placement,
    tree: &DcTree,
    gate: &mut PowerGate,
    parallel: &ParallelConfig,
    ws: &mut MeteringWorkspace,
) -> EpochMetrics {
    let active = placement.active_servers();
    let desired: Vec<bool> = (0..gate.len())
        .map(|sid| active.contains(&ServerId(sid)))
        .collect();
    let booting_before: Vec<bool> = (0..gate.len()).map(|sid| !gate.is_ready(sid)).collect();
    gate.step(&desired, scenario.epoch_seconds as u32);
    let boot_frac = (gate.boot_seconds as f64 / scenario.epoch_seconds).min(1.0);
    let boot_watts: f64 = desired
        .iter()
        .zip(&booting_before)
        .filter(|(on, booting)| **on && **booting)
        .map(|_| scenario.power.server.peak_watts * gate.boot_power_frac * boot_frac)
        .sum();

    let cpu_utils = placement.server_cpu_utilizations(w, tree);
    let sample = meter_with_utils(placement, tree, &scenario.power, &cpu_utils);
    let tct_ms = match &scenario.tct_app_prefix {
        Some(prefix) => mean_tct_ms_sharded(
            &scenario.latency,
            w,
            placement,
            tree,
            &cpu_utils,
            |f: &Flow| {
                w.containers[f.a.0].app.starts_with(prefix.as_str())
                    || w.containers[f.b.0].app.starts_with(prefix.as_str())
            },
            parallel,
            ws,
        ),
        None => mean_tct_ms_sharded(
            &scenario.latency,
            w,
            placement,
            tree,
            &cpu_utils,
            |_: &Flow| true,
            parallel,
            ws,
        ),
    };
    let active_utils: Vec<f64> = cpu_utils.iter().copied().filter(|u| *u > 0.0).collect();
    let mean_cpu_util = if active_utils.is_empty() {
        0.0
    } else {
        active_utils.iter().sum::<f64>() / active_utils.len() as f64
    };
    EpochMetrics {
        sample,
        boot_watts,
        tct_ms,
        mean_cpu_util,
    }
}

/// The reference epoch loop: place each epoch through the policy's ladder,
/// meter the planned placement, and cost the migration plan against the
/// previous epoch's placement with the scenario's migration model.
pub fn reference_run(
    scenario: &Scenario,
    policy: &Policy,
    parallel: &ParallelConfig,
) -> Result<PolicyRun, PlaceError> {
    let mut ws = MeteringWorkspace::new();
    let mut records = Vec::with_capacity(scenario.epochs.len());
    let mut prev: Option<Placement> = None;
    let mut ladder = ladder(policy, scenario);
    let mut gate = PowerGate::all_on(scenario.tree.server_count());
    // Epoch workloads materialize into one reused arena: steady-state
    // epochs refill it without allocating, and the stateful Goldilocks
    // graph caches see byte-identical inputs to the allocating path.
    let mut arena = WorkloadArena::new();
    for e in 0..scenario.epochs.len() {
        let w = epoch_workload_into(scenario, e, &mut arena);
        let (placement, rung, _) = ladder.place(w, &scenario.tree);
        if matches!(rung, Rung::Spill | Rung::Shed) {
            return Err(PlaceError::Infeasible {
                reason: format!(
                    "{} epoch {e}: even the relaxed rung failed (ladder fell to {})",
                    policy.name(),
                    rung.name()
                ),
            });
        }
        let metrics = meter_epoch(
            scenario,
            w,
            &placement,
            &scenario.tree,
            &mut gate,
            parallel,
            &mut ws,
        );
        let (sample, tct) = (metrics.sample, metrics.tct_ms);

        let (migrations, freeze) = match &prev {
            Some(old) => {
                let plan = migration_plan(old, &placement);
                let cost = scenario.migration.plan_cost(&plan, w);
                (cost.count, cost.total_freeze_s)
            }
            None => (0, 0.0),
        };

        let spec = &scenario.epochs[e];
        records.push(EpochRecord {
            epoch: e,
            active_servers: sample.active_servers,
            server_watts: sample.server_watts,
            switch_watts: sample.switch_watts,
            boot_watts: metrics.boot_watts,
            tct_ms: tct,
            energy_per_request_j: if spec.rps > 0.0 {
                sample.total_watts() * (tct / 1000.0) / CLIENT_CONCURRENCY
            } else {
                0.0
            },
            migrations,
            freeze_seconds: freeze,
            mean_cpu_util: metrics.mean_cpu_util,
            fallback: rung != Rung::Primary,
        });
        prev = Some(placement);
    }
    Ok(PolicyRun {
        policy: policy.name().to_string(),
        records,
    })
}
