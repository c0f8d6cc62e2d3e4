//! The epoch engine: drive a placement policy over a load trace and record
//! the paper's four metrics per epoch (active servers, power, TCT,
//! energy/request) plus migration costs.

use goldilocks_cluster::MigrationModel;
use goldilocks_core::{
    rung_configs, Goldilocks, GoldilocksAsym, GoldilocksConfig, IncrementalGoldilocks, Ladder, Rung,
};
use goldilocks_partition::ParallelConfig;
use goldilocks_placement::{Borg, EPvm, Mpp, PlaceError, Placer, RcInformed};
use goldilocks_topology::DcTree;
use goldilocks_workload::traces::Trace;
use goldilocks_workload::{CorrelatedLoadStream, Workload, WorkloadArena};

use crate::chaos::{ChaosDriver, ChaosEpochRecord, FaultSchedule};
use crate::energy::PowerConfig;
use crate::latency::LatencyModel;

/// The policies evaluated in Section VI.
#[derive(Clone, Debug)]
pub enum Policy {
    /// E-PVM: least-utilized spreading (the baseline).
    EPvm,
    /// pMapper mPP: min-power-increase FFD packing to 95 %.
    Mpp,
    /// Borg: stranded-resource packing to 95 %.
    Borg,
    /// RC-Informed: bucket packing by reservations, 125 % CPU oversubscribed.
    RcInformed,
    /// Goldilocks (symmetric algorithm, Section III).
    Goldilocks(GoldilocksConfig),
    /// Goldilocks with Virtual-Cluster placement (Section IV).
    GoldilocksAsym(GoldilocksConfig),
    /// Migration-aware Goldilocks with incremental repartitioning (the
    /// Section IV-C extension); the payload is the stickiness in `[0, 1]`.
    GoldilocksIncremental(GoldilocksConfig, f64),
}

impl Policy {
    /// All five policies of the paper's evaluation, Goldilocks last.
    pub fn lineup() -> Vec<Policy> {
        vec![
            Policy::EPvm,
            Policy::Mpp,
            Policy::Borg,
            Policy::RcInformed,
            Policy::Goldilocks(GoldilocksConfig::paper()),
        ]
    }

    /// Returns a copy with the partitioner's parallelism set on the
    /// Goldilocks variants (the other policies have no partitioner and come
    /// back unchanged). Injecting parallelism never changes a placement —
    /// the partition tree is byte-identical for any thread count.
    pub fn with_parallel(&self, parallel: &ParallelConfig) -> Policy {
        let inject = |cfg: &GoldilocksConfig| {
            let mut cfg = cfg.clone();
            cfg.bisect.parallel = parallel.clone();
            cfg
        };
        match self {
            Policy::Goldilocks(cfg) => Policy::Goldilocks(inject(cfg)),
            Policy::GoldilocksAsym(cfg) => Policy::GoldilocksAsym(inject(cfg)),
            Policy::GoldilocksIncremental(cfg, sticky) => {
                Policy::GoldilocksIncremental(inject(cfg), *sticky)
            }
            other => other.clone(),
        }
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Policy::EPvm => "E-PVM",
            Policy::Mpp => "mPP",
            Policy::Borg => "Borg",
            Policy::RcInformed => "RC-Informed",
            Policy::Goldilocks(_) => "Goldilocks",
            Policy::GoldilocksAsym(_) => "Goldilocks-Asym",
            Policy::GoldilocksIncremental(..) => "Goldilocks-Inc",
        }
    }

    /// Builds the policy's degradation ladder for a run over `scenario`.
    /// Goldilocks variants get their [`rung_configs`]; the baselines have no
    /// mildly relaxed setting, so both relaxed rungs use their relaxed form
    /// (100 % caps, or 150 % CPU oversubscription for RC-Informed).
    pub(crate) fn ladder(&self, scenario: &Scenario) -> Ladder<Box<dyn Placer>> {
        fn boxed<P: Placer + 'static>(rungs: [P; 3]) -> Ladder<Box<dyn Placer>> {
            Ladder::new(rungs.map(|p| Box::new(p) as Box<dyn Placer>))
        }
        fn relaxed_twice<P: Placer + Clone + 'static>(
            primary: P,
            relaxed: P,
        ) -> Ladder<Box<dyn Placer>> {
            boxed([primary, relaxed.clone(), relaxed])
        }
        match self {
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
                // Over-reservation applies to CPU (the resource Resource
                // Central oversubscribes); memory and network are reserved
                // at nominal. Built over the full base so the placer can be
                // stateful across epochs.
                let reservations: Vec<_> = scenario
                    .base
                    .containers
                    .iter()
                    .map(|c| {
                        goldilocks_topology::Resources::new(
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
            Policy::GoldilocksAsym(cfg) => {
                boxed(rung_configs(cfg).map(GoldilocksAsym::with_config))
            }
            Policy::GoldilocksIncremental(cfg, sticky) => {
                boxed(rung_configs(cfg).map(|c| IncrementalGoldilocks::with_config(c, *sticky)))
            }
        }
    }
}

/// Per-epoch workload shape.
#[derive(Clone, Debug)]
pub struct EpochSpec {
    /// Multiplier on CPU/network demand (RPS-proportional load).
    pub load_factor: f64,
    /// Number of live containers (prefix of the base workload).
    pub container_count: usize,
    /// Requests per second served this epoch (for energy/request).
    pub rps: f64,
}

/// A complete experiment definition.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario name (e.g. `"fig9-wiki"`).
    pub name: String,
    /// The data-center topology.
    pub tree: DcTree,
    /// The base workload at nominal (peak) load.
    pub base: Workload,
    /// Per-epoch load shape.
    pub epochs: Vec<EpochSpec>,
    /// Epoch wall-clock length in seconds.
    pub epoch_seconds: f64,
    /// Power models.
    pub power: PowerConfig,
    /// Latency model.
    pub latency: LatencyModel,
    /// Migration cost model.
    pub migration: MigrationModel,
    /// Per-container load multiplier traces (correlated bursts); applied on
    /// top of `load_factor` when present.
    pub per_container_load: Option<Vec<Trace>>,
    /// Streaming per-container multipliers (counter-mode, O(1) memory) —
    /// the hyperscale replacement for materialized `per_container_load`
    /// tables; applied after them and before `load_factor`.
    pub per_container_stream: Option<CorrelatedLoadStream>,
    /// Restrict TCT measurement to flows touching containers of this app
    /// prefix (e.g. `"memcached"` for Twitter queries); `None` = all flows.
    pub tct_app_prefix: Option<String>,
    /// Multiplier applied to nominal demands to form RC-Informed's
    /// *reservations*. Resource Central observes heavy over-reservation in
    /// production (much of the reserved CPU goes unused), which is exactly
    /// why it oversubscribes; 1.0 = reserve the nominal demand.
    pub reservation_factor: f64,
}

/// Outstanding requests per epoch in the closed-loop load generator (the
/// testbed drives a fixed connection pool; Section VI-A).
pub const CLIENT_CONCURRENCY: f64 = 100.0;

/// Metrics for one epoch of one policy.
#[derive(Clone, Debug)]
pub struct EpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Powered-on servers.
    pub active_servers: usize,
    /// Server power draw, W.
    pub server_watts: f64,
    /// Network power draw, W.
    pub switch_watts: f64,
    /// Boot-energy surcharge for servers powered on this epoch, W
    /// (amortized over the epoch).
    pub boot_watts: f64,
    /// Mean task completion time, ms.
    pub tct_ms: f64,
    /// Energy per request, joules. The testbed client is closed-loop with
    /// [`CLIENT_CONCURRENCY`] outstanding requests, so completed throughput
    /// is `concurrency / TCT` and energy per request is
    /// `total_watts × TCT / concurrency` — slower policies burn more energy
    /// per completed request even at equal power.
    pub energy_per_request_j: f64,
    /// Containers migrated relative to the previous epoch.
    pub migrations: usize,
    /// Aggregate migration freeze time, seconds.
    pub freeze_seconds: f64,
    /// Mean CPU utilization over active servers.
    pub mean_cpu_util: f64,
    /// True when a rung below the primary placed the epoch.
    pub fallback: bool,
}

impl EpochRecord {
    /// Total power draw, W (including boot surcharges).
    pub fn total_watts(&self) -> f64 {
        self.server_watts + self.switch_watts + self.boot_watts
    }
}

/// One policy's full run over a scenario.
#[derive(Clone, Debug)]
pub struct PolicyRun {
    /// Policy name.
    pub policy: String,
    /// Per-epoch records.
    pub records: Vec<EpochRecord>,
}

/// Applies the epoch's load shape to an already-materialized prefix:
/// per-container trace multipliers, streamed multipliers, then the global
/// load factor.
fn apply_epoch_shape(scenario: &Scenario, epoch: usize, w: &mut Workload) {
    let spec = &scenario.epochs[epoch];
    if let Some(mults) = &scenario.per_container_load {
        for c in &mut w.containers {
            if let Some(t) = mults.get(c.id.0) {
                if let Some(&m) = t.values.get(epoch) {
                    c.demand.cpu *= m;
                    c.demand.network_mbps *= m;
                }
            }
        }
    }
    if let Some(stream) = &scenario.per_container_stream {
        stream.apply(epoch, w);
    }
    w.scale_load(spec.load_factor);
}

/// Builds the epoch's live workload — the base workload's prefix of the
/// epoch's container count, per-container multipliers, then the global load
/// factor — into `arena`'s reused tables. Steady-state epochs (unchanged
/// container count) refill without heap allocation; a fresh
/// [`WorkloadArena::new`] gives the same values.
pub fn epoch_workload_into<'a>(
    scenario: &Scenario,
    epoch: usize,
    arena: &'a mut WorkloadArena,
) -> &'a Workload {
    let w = arena.set_prefix(&scenario.base, scenario.epochs[epoch].container_count);
    apply_epoch_shape(scenario, epoch, w);
    w
}

/// Runs one policy across every epoch of `scenario`: a [`ChaosDriver`] run
/// over an empty [`FaultSchedule`], each [`ChaosEpochRecord`] projected to an
/// [`EpochRecord`]. `parallel` sets the metering engine's thread budget and
/// chunk size; partitioner parallelism rides in the policy's own config (see
/// [`Policy::with_parallel`]). Because per-chunk partials combine in fixed
/// chunk order, `parallel` never changes a single output bit, and
/// [`ParallelConfig::sequential`] is the reference path, on the calling
/// thread.
///
/// Migrations are executed, not estimated: `migrations` counts the
/// migrations the executor attempted and `freeze_seconds` the freeze it
/// paid, and the epoch is metered on the placement that materialized. With
/// the default [`MigrationModel`] every migration lands, so that is the
/// planned placement; with a `failure_prob > 0` or a finite `timeout_s`,
/// abandoned migrations stay on their source and the records meter that.
/// The migration-failure rolls are seeded with 0, as `run_chaos(.., 0)`.
///
/// # Errors
///
/// Returns [`PlaceError::Infeasible`] naming the rung when even the relaxed
/// rung of the policy's ladder cannot host an epoch's workload — an epoch
/// run leaves no container unplaced.
pub fn run_policy_with(
    scenario: &Scenario,
    policy: &Policy,
    parallel: &ParallelConfig,
) -> Result<PolicyRun, PlaceError> {
    let schedule = FaultSchedule::empty(scenario.epochs.len());
    let mut driver = ChaosDriver::new(scenario, policy, &schedule, 0);
    driver.metering = parallel.clone();
    driver.run_remaining().map_err(|e| PlaceError::Infeasible {
        reason: format!("{}: {e}", policy.name()),
    })?;
    let records = driver
        .finish()
        .records
        .iter()
        .map(|r| epoch_record(scenario, policy, r))
        .collect::<Result<_, _>>()?;
    Ok(PolicyRun {
        policy: policy.name().to_string(),
        records,
    })
}

/// Projects a fault-free driver record onto the paper's metrics, or the
/// [`PlaceError::Infeasible`] of an epoch that fell to the spill or shed
/// rung.
fn epoch_record(
    scenario: &Scenario,
    policy: &Policy,
    r: &ChaosEpochRecord,
) -> Result<EpochRecord, PlaceError> {
    let e = r.epoch;
    if matches!(r.fallback, Rung::Spill | Rung::Shed) {
        return Err(PlaceError::Infeasible {
            reason: format!(
                "{} epoch {e}: even the relaxed rung failed (ladder fell to {})",
                policy.name(),
                r.fallback.name()
            ),
        });
    }
    Ok(EpochRecord {
        epoch: e,
        active_servers: r.active_servers,
        server_watts: r.server_watts,
        switch_watts: r.switch_watts,
        boot_watts: r.boot_watts,
        tct_ms: r.tct_ms,
        energy_per_request_j: if scenario.epochs[e].rps > 0.0 {
            (r.server_watts + r.switch_watts) * (r.tct_ms / 1000.0) / CLIENT_CONCURRENCY
        } else {
            0.0
        },
        migrations: r.migration.attempted,
        freeze_seconds: r.migration.total_freeze_s,
        mean_cpu_util: r.mean_cpu_util,
        fallback: r.fallback != Rung::Primary,
    })
}

/// Runs several policies over a scenario, fanning them out over scoped
/// worker threads and joining results back in the caller's policy order.
/// Pass [`Policy::lineup`] for the full Section VI lineup.
///
/// Determinism contract: each [`run_policy_with`] call is a pure function of
/// `(scenario, policy)` — policies share no mutable state — so the only
/// thing parallelism could perturb is ordering, and the join order is fixed.
/// Every policy worker also receives the full inner thread budget for both
/// parallel phases — its partitioner (`Policy::with_parallel`) and its
/// sharded metering engine ([`run_policy_with`]): the heuristic baselines
/// never fork a partition, but every policy meters every epoch, so sharded
/// metering is what keeps the budget busy once the 5-policy fan-out is
/// capped by its slowest member.
/// The transient oversubscription (lineup size + partition forks vs
/// `threads`) is bounded and cheap for CPU-bound workers, and the partition
/// output is byte-identical at any thread count. `threads = 1` takes the
/// exact legacy sequential path with no scope creation.
///
/// # Errors
///
/// Propagates the first policy failure in the caller's policy order.
pub fn run_policies_with(
    scenario: &Scenario,
    policies: &[Policy],
    parallel: &ParallelConfig,
) -> Result<Vec<PolicyRun>, PlaceError> {
    let threads = parallel.threads.max(1);
    if threads == 1 {
        return policies
            .iter()
            .map(|p| run_policy_with(scenario, p, &ParallelConfig::sequential()))
            .collect();
    }
    if policies.len() <= 1 {
        // A lone policy gets the full budget inside its own run: partition
        // forks plus sharded metering, no policy fan-out needed.
        return policies
            .iter()
            .map(|p| run_policy_with(scenario, &p.with_parallel(parallel), parallel))
            .collect();
    }
    let policies: Vec<Policy> = policies.iter().map(|p| p.with_parallel(parallel)).collect();
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = policies
            .iter()
            .map(|p| s.spawn(move || run_policy_with(scenario, p, parallel)))
            .collect();
        handles
            .into_iter()
            // lint:allow(no-panic-in-libs) -- re-raising a policy worker's
            // panic is the only sound response to a poisoned scoped join;
            // swallowing it would drop a lineup column silently.
            .map(|h| h.join().expect("policy worker panicked"))
            .collect::<Vec<_>>()
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::wiki_testbed;

    #[test]
    fn epoch_workload_applies_shape() {
        let mut s = wiki_testbed(8, 40, 1);
        s.epochs[0].load_factor = 0.5;
        s.epochs[0].container_count = 20;
        let mut arena = WorkloadArena::new();
        let w = epoch_workload_into(&s, 0, &mut arena);
        assert_eq!(w.len(), 20);
        let full = s.base.prefix(20);
        assert!(w.total_demand().cpu < full.total_demand().cpu);
    }

    #[test]
    fn epoch_workload_into_matches_reference() {
        // The arena path must be bit-identical to shaping a freshly
        // allocated prefix under every shaping feature: prefix churn
        // (azure), per-container trace tables (azure), and streamed
        // multipliers (hyperscale).
        let scenarios = vec![
            wiki_testbed(6, 40, 1),
            crate::scenarios::azure_testbed_sized(8, 30, 44, 2),
            crate::scenarios::hyperscale(4, 6, 3),
        ];
        for s in &scenarios {
            let mut arena = WorkloadArena::new();
            for e in 0..s.epochs.len() {
                let mut want = s.base.prefix(s.epochs[e].container_count);
                apply_epoch_shape(s, e, &mut want);
                let got = epoch_workload_into(s, e, &mut arena);
                assert_eq!(got.containers, want.containers, "{} epoch {e}", s.name);
                assert_eq!(got.flows, want.flows, "{} epoch {e}", s.name);
            }
        }
    }

    #[test]
    fn run_policy_produces_all_epochs() {
        let s = wiki_testbed(6, 40, 2);
        let run = run_policy_with(&s, &Policy::EPvm, &ParallelConfig::sequential()).unwrap();
        assert_eq!(run.records.len(), 6);
        assert_eq!(run.policy, "E-PVM");
        for r in &run.records {
            assert_eq!(r.active_servers, 16, "E-PVM keeps all servers on");
            assert!(r.total_watts() > 0.0);
            assert!(r.tct_ms > 0.0);
        }
    }

    #[test]
    fn migrations_counted_between_epochs() {
        let s = wiki_testbed(6, 40, 3);
        let run = run_policy_with(
            &s,
            &Policy::Goldilocks(GoldilocksConfig::paper()),
            &ParallelConfig::sequential(),
        )
        .unwrap();
        assert_eq!(run.records[0].migrations, 0, "first epoch has no diff");
        // Later epochs may migrate; freeze time only when migrations happen.
        for r in &run.records {
            if r.migrations == 0 {
                assert_eq!(r.freeze_seconds, 0.0);
            } else {
                assert!(r.freeze_seconds > 0.0);
            }
        }
    }

    #[test]
    fn boot_surcharge_on_scale_up() {
        // A policy that tracks load powers servers on as load rises; those
        // epochs must carry a boot surcharge.
        let mut s = wiki_testbed(8, 60, 9);
        // Force a rising load profile.
        for (i, e) in s.epochs.iter_mut().enumerate() {
            e.load_factor = 0.3 + 0.1 * i as f64;
        }
        let run = run_policy_with(
            &s,
            &Policy::Goldilocks(GoldilocksConfig::paper()),
            &ParallelConfig::sequential(),
        )
        .unwrap();
        let grew: Vec<usize> = run
            .records
            .windows(2)
            .filter(|w| w[1].active_servers > w[0].active_servers)
            .map(|w| w[1].epoch)
            .collect();
        assert!(!grew.is_empty(), "load profile should grow the active set");
        for e in grew {
            assert!(
                run.records[e].boot_watts > 0.0,
                "epoch {e} grew without boot surcharge"
            );
        }
        // Epoch 0 starts from all-on: no boot cost.
        assert_eq!(run.records[0].boot_watts, 0.0);
    }

    #[test]
    fn incremental_policy_reduces_migrations() {
        let s = wiki_testbed(10, 80, 4);
        let fresh = run_policy_with(
            &s,
            &Policy::Goldilocks(GoldilocksConfig::paper()),
            &ParallelConfig::sequential(),
        )
        .unwrap();
        let inc = run_policy_with(
            &s,
            &Policy::GoldilocksIncremental(GoldilocksConfig::paper(), 1.0),
            &ParallelConfig::sequential(),
        )
        .unwrap();
        let m = |r: &PolicyRun| r.records.iter().map(|x| x.migrations).sum::<usize>();
        assert!(
            m(&inc) < m(&fresh),
            "incremental {} !< stateless {}",
            m(&inc),
            m(&fresh)
        );
        assert_eq!(inc.policy, "Goldilocks-Inc");
    }

    #[test]
    fn container_larger_than_every_server_is_an_error() {
        // Even the shed rung would "place" this epoch by dropping the
        // container; an epoch run must report it instead of recording it.
        let mut s = wiki_testbed(3, 40, 5);
        s.base.containers[0].demand.cpu = 1.0e6;
        for policy in [Policy::EPvm, Policy::Goldilocks(GoldilocksConfig::paper())] {
            match run_policy_with(&s, &policy, &ParallelConfig::sequential()) {
                Err(PlaceError::Infeasible { reason }) => {
                    assert!(reason.contains("shed"), "{}: {reason}", policy.name());
                }
                other => panic!("{}: expected Infeasible, got {other:?}", policy.name()),
            }
        }
    }

    #[test]
    fn lineup_runs_every_policy() {
        let s = wiki_testbed(4, 40, 4);
        let runs = run_policies_with(&s, &Policy::lineup(), &ParallelConfig::sequential()).unwrap();
        let names: Vec<&str> = runs.iter().map(|r| r.policy.as_str()).collect();
        assert_eq!(
            names,
            vec!["E-PVM", "mPP", "Borg", "RC-Informed", "Goldilocks"]
        );
    }
}
