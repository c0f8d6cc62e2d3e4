//! The resilient epoch driver: replay a [`FaultSchedule`] against a
//! working copy of the scenario's topology while driving a placement
//! policy, and account for every degradation instead of panicking.
//!
//! Each epoch:
//!
//! 1. apply the epoch's repairs and faults to the topology copy (a
//!    [`FaultEvent::ControllerCrash`] kills the controller here: its
//!    in-memory state is discarded and rebuilt from the write-ahead log);
//! 2. plan a placement through the policy's [`Ladder`] (rungs and caps:
//!    ARCHITECTURE.md, "Degradation ladder"); the shed rung drops the
//!    lowest-priority (highest-index) containers;
//! 3. reconcile the persistent [`ContainerRuntime`] toward the plan with
//!    the fault-aware migration executor (retries, rollbacks, cold
//!    restarts off dead servers), one logged *unit* at a time;
//! 4. step the power gate and meter power/TCT on the placement that
//!    *actually* materialized;
//! 5. commit, snapshot the committed state and compact the WAL to that
//!    snapshot.
//!
//! This is the library's one epoch step: `run_policy_with`, behind every
//! figure, is a driver run over an empty schedule.
//!
//! The driver is a [`ChaosDriver`] value so a run can be stopped at any
//! epoch boundary or between migration units ("the controller process
//! died"), and [`ChaosDriver::resume`] rebuilds an equivalent driver from
//! the surviving WAL bytes — the recovery drill asserts the resumed run's
//! final placement is byte-identical to an uninterrupted one.
//!
//! What is controller memory vs. the world: the RNG cursor, the planner,
//! the WAL, and the epoch cursor die with the controller. The topology
//! (failed servers, degraded uplinks) is the physical world and is
//! reconstructed by replaying the fault schedule. The container runtime
//! and power gate are the *data plane* — they keep running while the
//! controller is down; [`ChaosDriver::resume`] accepts them if they
//! survived, or rebuilds the controller's view of them from the log.

use std::collections::{BTreeMap, BTreeSet};

use goldilocks_cluster::{
    anti_entropy, execute_unit, recover, ClusterError, ClusterState, ContainerRuntime, Disposition,
    LifecycleError, MigrationStats, PowerGate, Wal, WalEvent,
};
use goldilocks_core::{Ladder, Rung};
use goldilocks_partition::ParallelConfig;
use goldilocks_placement::{Placement, Placer};
use goldilocks_rng::SplitMix64;
use goldilocks_topology::{DcTree, NodeId, Resources, ServerId};
use goldilocks_workload::{Flow, Workload, WorkloadArena};

use super::plan::{FaultEvent, FaultSchedule};
use crate::energy::{meter_with_utils, PowerSample};
use crate::epoch::{epoch_workload_into, Policy, Scenario};
use crate::metering::{mean_tct_ms_sharded, MeteringWorkspace};

/// Salt xor-ed into the run seed for the migration-roll stream, keeping it
/// decorrelated from the fault-schedule stream under the same seed.
const ROLL_SALT: u64 = 0xD1B5_4A32_D192_ED03;

/// Upper bound on anti-entropy repairs applied in one recovery round.
const MAX_REPAIRS_PER_ROUND: usize = 64;

/// Errors a chaos run can surface. Placement shortfalls are absorbed by the
/// degradation ladder; what remains are genuine driver bugs or corrupt logs.
#[derive(Debug)]
pub enum ChaosError {
    /// A cluster control-plane failure: illegal transition stream, invalid
    /// migration model, or an unrecoverable WAL.
    Cluster(ClusterError),
}

impl std::fmt::Display for ChaosError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChaosError::Cluster(e) => write!(f, "cluster control plane: {e}"),
        }
    }
}

impl std::error::Error for ChaosError {}

impl From<ClusterError> for ChaosError {
    fn from(e: ClusterError) -> Self {
        ChaosError::Cluster(e)
    }
}

impl From<LifecycleError> for ChaosError {
    fn from(e: LifecycleError) -> Self {
        ChaosError::Cluster(ClusterError::Lifecycle(e))
    }
}

/// Metrics for one epoch of a chaos run.
#[derive(Clone, Debug)]
pub struct ChaosEpochRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Faults injected this epoch.
    pub faults: usize,
    /// Repairs landing this epoch.
    pub repairs: usize,
    /// Servers eligible for placement after this epoch's events.
    pub healthy_servers: usize,
    /// Powered-on servers.
    pub active_servers: usize,
    /// Server power draw, W.
    pub server_watts: f64,
    /// Network power draw, W.
    pub switch_watts: f64,
    /// Boot-energy surcharge, W (amortized).
    pub boot_watts: f64,
    /// Mean task completion time over served flows, ms.
    pub tct_ms: f64,
    /// Mean CPU utilization over active servers.
    pub mean_cpu_util: f64,
    /// Which ladder rung produced the placement.
    pub fallback: Rung,
    /// Containers the epoch demanded.
    pub demanded: usize,
    /// Containers actually running after reconciliation.
    pub served: usize,
    /// Containers shed by the planner this epoch.
    pub shed: usize,
    /// Migration execution counters.
    pub migration: MigrationStats,
    /// True when the controller recovered from its WAL during (or right
    /// before) this epoch.
    pub recovered: bool,
}

impl ChaosEpochRecord {
    /// Total power draw, W.
    pub fn total_watts(&self) -> f64 {
        self.server_watts + self.switch_watts + self.boot_watts
    }
}

/// Aggregate resilience metrics of a chaos run.
#[derive(Clone, Debug, Default)]
pub struct ResilienceSummary {
    /// Epochs simulated.
    pub epochs: usize,
    /// Faults injected.
    pub fault_events: usize,
    /// Repairs observed.
    pub repair_events: usize,
    /// Mean time to repair, epochs (over repaired faults; 0 when none).
    pub mttr_epochs: f64,
    /// Faults still open when the run ended.
    pub unrepaired_faults: usize,
    /// Served container-epochs over demanded container-epochs.
    pub availability: f64,
    /// Container-epochs lost to shedding.
    pub shed_container_epochs: usize,
    /// Epochs placed below the primary rung.
    pub fallback_epochs: usize,
    /// Epochs that had to shed load.
    pub shed_epochs: usize,
    /// Voluntary migrations attempted / completed.
    pub migrations_attempted: usize,
    /// Voluntary migrations that landed.
    pub migrations_completed: usize,
    /// Individual failed migration attempts (each rolled back).
    pub failed_migration_attempts: usize,
    /// Migration retries performed.
    pub migration_retries: usize,
    /// Migrations abandoned after exhausting retries.
    pub migrations_abandoned: usize,
    /// Cold restarts forced by dead source servers.
    pub forced_restarts: usize,
    /// Times the controller recovered from its WAL.
    pub controller_recoveries: usize,
    /// Mean total power draw, W.
    pub avg_total_watts: f64,
    /// Mean TCT, ms.
    pub avg_tct_ms: f64,
}

/// One policy's chaos run.
#[derive(Clone, Debug)]
pub struct ChaosRun {
    /// Policy name.
    pub policy: String,
    /// Migration-roll seed the run used.
    pub seed: u64,
    /// Per-epoch records.
    pub records: Vec<ChaosEpochRecord>,
    /// Aggregates.
    pub summary: ResilienceSummary,
}

/// Open-fault bookkeeping key for MTTR.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum FaultKey {
    Server(usize),
    Uplink(usize),
    Switch(usize),
    Straggler(usize),
    Storm,
}

/// The in-flight epoch a resumed driver picks back up.
struct PendingEpoch {
    /// The logged decision, if the crash happened after planning.
    intended: Option<Placement>,
    fallback: Rung,
    shed: usize,
    /// Containers whose unit already resolved before the crash — their
    /// outcome is final and their failure rolls were already consumed.
    skip: BTreeSet<usize>,
}

/// A crash-recoverable chaos run in progress. See the module docs for the
/// controller-memory vs. data-plane split.
pub struct ChaosDriver<'a> {
    scenario: &'a Scenario,
    policy: &'a Policy,
    schedule: &'a FaultSchedule,
    seed: u64,

    // The physical world: survives controller crashes, reconstructed by
    // replaying the fault schedule on resume.
    tree: DcTree,
    nominal_resources: Vec<Resources>,
    nominal_uplink: BTreeMap<NodeId, f64>,
    switch_victims: BTreeMap<NodeId, Vec<ServerId>>,
    storm_prob: Option<f64>,
    open_faults: BTreeMap<FaultKey, usize>,
    mttr_samples: Vec<usize>,

    // The data plane: keeps running while the controller is down.
    runtime: ContainerRuntime,
    gate: PowerGate,

    // Controller memory: dies with the process, rebuilt from the WAL.
    ladder: Ladder<Box<dyn Placer>>,
    rolls: SplitMix64,
    wal: Wal,
    next_epoch: usize,
    pending: Option<PendingEpoch>,

    // The experimenter's measurements (outside the simulated controller).
    records: Vec<ChaosEpochRecord>,
    recoveries: usize,
    recovered_flag: bool,
    halted: bool,

    // Reusable metering and workload scratch (outside the simulated
    // controller: pure memory, carries no state the WAL would need to
    // rebuild).
    meter_ws: MeteringWorkspace,
    arena: WorkloadArena,
    /// The metering engine's thread budget and chunk size; never changes
    /// an output bit. Sequential unless `run_policy_with` passes its own.
    pub(crate) metering: ParallelConfig,
}

impl<'a> ChaosDriver<'a> {
    /// A fresh driver at epoch 0 with an empty WAL.
    pub fn new(
        scenario: &'a Scenario,
        policy: &'a Policy,
        schedule: &'a FaultSchedule,
        seed: u64,
    ) -> Self {
        let tree = scenario.tree.clone();
        let nominal_resources: Vec<Resources> = (0..tree.server_count())
            .map(|s| tree.server(ServerId(s)).resources)
            .collect();
        let nominal_uplink: BTreeMap<NodeId, f64> = tree
            .rack_nodes()
            .into_iter()
            .map(|n| (n, tree.uplink_mbps(n)))
            .collect();
        let gate = PowerGate::all_on(tree.server_count());
        ChaosDriver {
            scenario,
            policy,
            schedule,
            seed,
            tree,
            nominal_resources,
            nominal_uplink,
            switch_victims: BTreeMap::new(),
            storm_prob: None,
            open_faults: BTreeMap::new(),
            mttr_samples: Vec::new(),
            runtime: ContainerRuntime::new(),
            gate,
            ladder: policy.ladder(scenario),
            rolls: SplitMix64::from_state(seed ^ ROLL_SALT),
            wal: Wal::new(),
            next_epoch: 0,
            pending: None,
            records: Vec::new(),
            recoveries: 0,
            recovered_flag: false,
            halted: false,
            meter_ws: MeteringWorkspace::new(),
            arena: WorkloadArena::new(),
            metering: ParallelConfig::sequential(),
        }
    }

    /// Rebuilds a driver from the WAL bytes a crashed controller left
    /// behind. `data_plane` is the surviving container runtime and power
    /// gate if the cluster outlived the controller; `None` models full
    /// cold recovery, where the controller's replayed view of the data
    /// plane becomes the rebuilt state.
    ///
    /// The physical world (fault state of the topology) is reconstructed
    /// by replaying the schedule's events for every epoch the dead
    /// controller had already entered. Per-epoch records from before the
    /// crash are measurement, not controller state — they are gone; the
    /// resumed run reports only the epochs it executes.
    ///
    /// # Errors
    ///
    /// Returns [`ChaosError::Cluster`] when the WAL's intact prefix is
    /// internally inconsistent or an anti-entropy repair is illegal.
    pub fn resume(
        scenario: &'a Scenario,
        policy: &'a Policy,
        schedule: &'a FaultSchedule,
        seed: u64,
        wal_bytes: &[u8],
        data_plane: Option<(ContainerRuntime, PowerGate)>,
    ) -> Result<Self, ChaosError> {
        let rec = recover(wal_bytes)?;
        let intact = rec.intact_bytes;
        let mut d = ChaosDriver::new(scenario, policy, schedule, seed);

        // Replay the physical world: events for every epoch the dead
        // controller had entered were already applied to the cluster.
        let epochs_entered = match (&rec.open, rec.state.committed_epoch) {
            (Some(o), _) => o.epoch as usize + 1,
            (None, Some(c)) => c as usize + 1,
            (None, None) => 0,
        };
        for e in 0..epochs_entered {
            d.apply_epoch_events(e, false)?;
        }
        d.next_epoch = if rec.open.is_some() {
            epochs_entered - 1
        } else {
            epochs_entered
        };

        match data_plane {
            Some((runtime, gate)) => {
                d.runtime = runtime;
                d.gate = gate;
            }
            None => {
                d.runtime = rec.runtime();
                d.gate = match &rec.state.gate {
                    Some(states) => PowerGate::from_states(states.clone()),
                    None => PowerGate::all_on(scenario.tree.server_count()),
                };
            }
        }
        d.rolls = SplitMix64::from_state(rec.rng_state().unwrap_or(seed ^ ROLL_SALT));
        d.wal = Wal::from_bytes(wal_bytes[..intact].to_vec());

        // Anti-entropy: realign the data plane with the controller's
        // replayed view. A torn tail means the last few applied commands
        // were never logged; the controller is authoritative, so they are
        // repaired back.
        let repairs = d.anti_entropy_round(&rec.state)?;
        if !repairs.is_empty() && rec.open.is_some() {
            // Inside an open epoch the repairs are logged as a unit so a
            // second recovery replays them into its view.
            d.wal.append(&WalEvent::Unit {
                container: u64::MAX,
                disposition: Disposition::Repair,
                rng_state: d.rolls.state(),
                transitions: repairs,
            });
        }
        if rec.open.is_none() {
            // At a boundary, re-anchor the log with a snapshot of the
            // recovered (and possibly repaired) state.
            anchor(
                &mut d.wal,
                ClusterState::capture(
                    rec.state.committed_epoch,
                    &rec.state.intended,
                    &d.runtime,
                    Some(d.gate.states()),
                    Some(d.rolls.state()),
                ),
            );
        }

        if let Some(open) = rec.open {
            d.pending = Some(PendingEpoch {
                intended: open.intended,
                fallback: Rung::from_code(open.fallback),
                shed: open.shed as usize,
                skip: open
                    .resolved
                    .iter()
                    .map(|(c, _)| *c)
                    .filter(|c| *c != u64::MAX)
                    .map(|c| c as usize)
                    .collect(),
            });
        }
        d.recoveries = 1;
        d.recovered_flag = true;
        Ok(d)
    }

    /// The epoch the next [`ChaosDriver::step_epoch`] call will execute.
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// True when every scenario epoch has committed.
    pub fn is_done(&self) -> bool {
        self.next_epoch >= self.scenario.epochs.len()
    }

    /// Times the controller recovered from its WAL (in-band crash faults
    /// plus an initial [`ChaosDriver::resume`]).
    pub fn recoveries(&self) -> usize {
        self.recoveries
    }

    /// The raw WAL bytes — what a crash leaves behind.
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// A copy of the data plane (container runtime + power gate), for
    /// simulating a controller-only crash where the cluster survives.
    pub fn data_plane(&self) -> (ContainerRuntime, PowerGate) {
        (self.runtime.clone(), self.gate.clone())
    }

    /// The materialized assignment of the first `containers` containers.
    pub fn assignment(&self, containers: usize) -> Vec<Option<ServerId>> {
        (0..containers).map(|c| self.runtime.host_of(c)).collect()
    }

    /// Executes one epoch. With `stop_after_units: Some(n)` the controller
    /// "crashes" after `n` migration units: the epoch is left open in the
    /// WAL, the driver halts, and `Ok(false)` is returned — grab
    /// [`ChaosDriver::wal_bytes`] and [`ChaosDriver::resume`]. Returns
    /// `Ok(true)` when the epoch committed (fewer than `n` units existed).
    ///
    /// # Errors
    ///
    /// Only on driver bugs: an illegal transition stream.
    ///
    /// # Panics
    ///
    /// Panics if the run is already done or was halted by a simulated
    /// crash.
    pub fn step_epoch(&mut self, stop_after_units: Option<usize>) -> Result<bool, ChaosError> {
        assert!(!self.halted, "driver crashed; resume from its WAL");
        assert!(!self.is_done(), "run already complete");
        let e = self.next_epoch;
        let pending = self.pending.take();

        let (faults, repairs) = if pending.is_some() {
            // A resumed epoch: its events already hit the world before the
            // crash (replayed in resume()); the counts belong to the lost
            // record.
            (0, 0)
        } else {
            self.apply_epoch_events(e, true)?
        };

        let w = epoch_workload_into(self.scenario, e, &mut self.arena);

        let mut skip = BTreeSet::new();
        let (target, fallback, shed) = match pending {
            Some(p) => {
                skip = p.skip;
                match p.intended {
                    // EpochBegin and Decision are already in the log.
                    Some(intended) => (intended, p.fallback, p.shed),
                    None => {
                        // Crash landed between EpochBegin and Decision:
                        // plan now (planning consumes no rolls) and log it.
                        let (t, f, s) = self.ladder.place(w, &self.tree);
                        self.wal.append(&WalEvent::Decision {
                            epoch: e as u64,
                            fallback: f.code(),
                            shed: s as u64,
                            intended: t.clone(),
                        });
                        (t, f, s)
                    }
                }
            }
            None => {
                self.wal.append(&WalEvent::EpochBegin {
                    epoch: e as u64,
                    rng_state: self.rolls.state(),
                });
                let (t, f, s) = self.ladder.place(w, &self.tree);
                self.wal.append(&WalEvent::Decision {
                    epoch: e as u64,
                    fallback: f.code(),
                    shed: s as u64,
                    intended: t.clone(),
                });
                (t, f, s)
            }
        };

        let mut model = self.scenario.migration;
        if let Some(p) = self.storm_prob {
            model.failure_prob = model.failure_prob.max(p);
        }

        let mut stats = MigrationStats::default();
        let mut executed = 0usize;
        for t in self.runtime.reconcile(&target) {
            let container = t.container();
            if skip.contains(&container) {
                continue;
            }
            if stop_after_units.is_some_and(|limit| executed >= limit) {
                // Simulated controller death between units: the epoch
                // stays open in the WAL and this driver is dead.
                self.halted = true;
                return Ok(false);
            }
            let unit = {
                let tree = &self.tree;
                let rolls = &mut self.rolls;
                execute_unit(
                    &mut self.runtime,
                    t,
                    w,
                    &model,
                    &|s| tree.server(s).failed,
                    &mut || rolls.f64(),
                )?
            };
            stats.absorb(&unit.stats);
            self.wal.append(&WalEvent::Unit {
                container: unit.container as u64,
                disposition: unit.disposition,
                rng_state: self.rolls.state(),
                transitions: unit.transitions,
            });
            executed += 1;
        }

        // The placement that materialized: abandoned migrations stayed on
        // their source, shed containers are not running.
        let effective = Placement {
            assignment: (0..w.len()).map(|c| self.runtime.host_of(c)).collect(),
        };

        // Power gating and metering on the materialized placement.
        let metrics = meter_epoch(
            self.scenario,
            w,
            &effective,
            &self.tree,
            &mut self.gate,
            &self.metering,
            &mut self.meter_ws,
        );
        self.wal.append(&WalEvent::EpochCommit {
            epoch: e as u64,
            rng_state: self.rolls.state(),
            gate: self.gate.states().to_vec(),
        });
        // Every commit is snapshotted and the log compacted to it, so the
        // WAL holds one snapshot plus the open epoch's records (at k=28,
        // ~1.2 MB plus up to ~3.3 MB) in every run, figures included.
        anchor(
            &mut self.wal,
            ClusterState::capture(
                Some(e as u64),
                &target,
                &self.runtime,
                Some(self.gate.states()),
                Some(self.rolls.state()),
            ),
        );

        let served = effective.assignment.iter().filter(|a| a.is_some()).count();
        self.records.push(ChaosEpochRecord {
            epoch: e,
            faults,
            repairs,
            healthy_servers: self.tree.healthy_servers().len(),
            active_servers: metrics.sample.active_servers,
            server_watts: metrics.sample.server_watts,
            switch_watts: metrics.sample.switch_watts,
            boot_watts: metrics.boot_watts,
            tct_ms: metrics.tct_ms,
            mean_cpu_util: metrics.mean_cpu_util,
            fallback,
            demanded: w.len(),
            served,
            shed,
            migration: stats,
            recovered: std::mem::take(&mut self.recovered_flag),
        });
        self.next_epoch = e + 1;
        Ok(true)
    }

    /// Runs full epochs until `epoch` is the next to execute.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ChaosError`] from [`ChaosDriver::step_epoch`].
    pub fn run_to(&mut self, epoch: usize) -> Result<(), ChaosError> {
        while self.next_epoch < epoch.min(self.scenario.epochs.len()) {
            self.step_epoch(None)?;
        }
        Ok(())
    }

    /// Runs every remaining epoch.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ChaosError`] from [`ChaosDriver::step_epoch`].
    pub fn run_remaining(&mut self) -> Result<(), ChaosError> {
        while !self.is_done() {
            self.step_epoch(None)?;
        }
        Ok(())
    }

    /// Consumes the driver into its run report.
    pub fn finish(self) -> ChaosRun {
        let summary = summarize(
            &self.records,
            &self.mttr_samples,
            self.open_faults.len(),
            self.recoveries,
        );
        ChaosRun {
            policy: self.policy.name().to_string(),
            seed: self.seed,
            records: self.records,
            summary,
        }
    }

    /// Applies epoch `e`'s schedule events to the physical world. With
    /// `live: false` (resume replay) controller crashes are skipped — they
    /// only touch controller memory, which the caller is rebuilding anyway.
    fn apply_epoch_events(&mut self, e: usize, live: bool) -> Result<(usize, usize), ChaosError> {
        let schedule: &'a FaultSchedule = self.schedule;
        let mut faults = 0usize;
        let mut repairs = 0usize;
        for ev in schedule.events_at(e) {
            if ev.is_repair() {
                repairs += 1;
            } else {
                faults += 1;
            }
            match *ev {
                FaultEvent::ServerCrash(s) => {
                    self.tree.fail_server(s);
                    self.open_faults.insert(FaultKey::Server(s.0), e);
                }
                FaultEvent::ServerRestore(s) => {
                    self.tree.restore_server(s);
                    self.tree
                        .set_server_resources(s, self.nominal_resources[s.0]);
                    self.close_fault(FaultKey::Server(s.0), e);
                }
                FaultEvent::UplinkDegrade { node, factor } => {
                    let base = self
                        .nominal_uplink
                        .get(&node)
                        .copied()
                        .unwrap_or_else(|| self.tree.uplink_mbps(node));
                    self.tree.set_uplink_mbps(node, base * factor);
                    self.open_faults.insert(FaultKey::Uplink(node.0), e);
                }
                FaultEvent::UplinkRepair(node) => {
                    if let Some(&base) = self.nominal_uplink.get(&node) {
                        self.tree.set_uplink_mbps(node, base);
                    }
                    self.close_fault(FaultKey::Uplink(node.0), e);
                }
                FaultEvent::SwitchFail(node) => {
                    let victims: Vec<ServerId> = self
                        .tree
                        .servers_under(node)
                        .into_iter()
                        .filter(|s| !self.tree.server(*s).failed)
                        .collect();
                    for &s in &victims {
                        self.tree.fail_server(s);
                    }
                    self.switch_victims.insert(node, victims);
                    self.open_faults.insert(FaultKey::Switch(node.0), e);
                }
                FaultEvent::SwitchRepair(node) => {
                    for s in self.switch_victims.remove(&node).unwrap_or_default() {
                        self.tree.restore_server(s);
                    }
                    self.close_fault(FaultKey::Switch(node.0), e);
                }
                FaultEvent::HeteroReplace { server, scale } => {
                    // Permanent: the replacement hardware becomes nominal.
                    self.nominal_resources[server.0] =
                        self.nominal_resources[server.0].scaled(scale);
                    self.tree
                        .set_server_resources(server, self.nominal_resources[server.0]);
                }
                FaultEvent::Straggler { server, slowdown } => {
                    self.tree.set_server_resources(
                        server,
                        self.nominal_resources[server.0].scaled(slowdown),
                    );
                    self.open_faults.insert(FaultKey::Straggler(server.0), e);
                }
                FaultEvent::StragglerRecover(s) => {
                    self.tree
                        .set_server_resources(s, self.nominal_resources[s.0]);
                    self.close_fault(FaultKey::Straggler(s.0), e);
                }
                FaultEvent::MigrationStorm { failure_prob } => {
                    self.storm_prob = Some(failure_prob);
                    self.open_faults.insert(FaultKey::Storm, e);
                }
                FaultEvent::MigrationStormEnd => {
                    self.storm_prob = None;
                    self.close_fault(FaultKey::Storm, e);
                }
                FaultEvent::ControllerCrash => {
                    if live {
                        self.controller_restart()?;
                    }
                }
            }
        }
        Ok((faults, repairs))
    }

    fn close_fault(&mut self, key: FaultKey, e: usize) {
        if let Some(opened) = self.open_faults.remove(&key) {
            self.mttr_samples.push(e - opened);
        }
    }

    /// In-band controller crash + restart: discard controller memory,
    /// recover from our own WAL, realign the data plane, re-anchor the log.
    /// With an intact log this is placement-invisible: the RNG resumes at
    /// its logged state and anti-entropy finds nothing to repair.
    fn controller_restart(&mut self) -> Result<(), ChaosError> {
        let rec = recover(self.wal.bytes())?;
        self.rolls = SplitMix64::from_state(rec.rng_state().unwrap_or(self.seed ^ ROLL_SALT));
        self.ladder = self.policy.ladder(self.scenario);
        self.anti_entropy_round(&rec.state)?;
        // Crashes land at epoch starts, so the WAL has no open epoch and a
        // re-anchoring snapshot is always legal here.
        anchor(
            &mut self.wal,
            ClusterState::capture(
                rec.state.committed_epoch,
                &rec.state.intended,
                &self.runtime,
                Some(self.gate.states()),
                Some(self.rolls.state()),
            ),
        );
        self.recoveries += 1;
        self.recovered_flag = true;
        Ok(())
    }

    /// Diffs the recovered controller view against the live data plane and
    /// applies a bounded batch of legal repairs. Returns the applied
    /// transitions.
    fn anti_entropy_round(
        &mut self,
        state: &ClusterState,
    ) -> Result<Vec<goldilocks_cluster::Transition>, ChaosError> {
        let view = state.actual_placement(self.scenario.base.containers.len());
        let plan = {
            let tree = &self.tree;
            let gate = &self.gate;
            anti_entropy(
                &view,
                &self.runtime,
                &|s: ServerId| !tree.server(s).failed && gate.is_ready(s.0),
                MAX_REPAIRS_PER_ROUND,
            )
        };
        if !plan.transitions.is_empty() {
            self.runtime.apply_all(&plan.transitions)?;
        }
        Ok(plan.transitions)
    }
}

/// Runs `policy` over `scenario` while replaying `schedule`, with `seed`
/// driving the migration-failure rolls. Identical inputs replay
/// identically. Thin wrapper over [`ChaosDriver`].
///
/// # Errors
///
/// Only on driver bugs: an illegal transition stream.
pub fn run_chaos(
    scenario: &Scenario,
    policy: &Policy,
    schedule: &FaultSchedule,
    seed: u64,
) -> Result<ChaosRun, ChaosError> {
    let mut driver = ChaosDriver::new(scenario, policy, schedule, seed);
    driver.run_remaining()?;
    Ok(driver.finish())
}

/// Appends `snapshot` to `wal` and compacts the log to it. Recovery replays
/// from the last snapshot only, so every byte before it is dead.
fn anchor(wal: &mut Wal, snapshot: ClusterState) {
    let at = wal.len_bytes();
    wal.append(&WalEvent::Snapshot(snapshot));
    wal.drop_prefix(at);
}

/// Power, latency and utilization of one epoch under one placement.
struct EpochMetrics {
    sample: PowerSample,
    /// Boot-energy surcharge for servers powered on this epoch, W.
    boot_watts: f64,
    tct_ms: f64,
    mean_cpu_util: f64,
}

/// The tail of an epoch step, after the placement has materialized:
/// advances the IPMI power `gate` toward the placement's active set, then
/// meters the placement against the given tree (the driver's working copy,
/// which differs from `scenario.tree` once faults have been applied).
///
/// Servers boot in `boot_seconds` drawing `boot_power_frac` of peak, so
/// policies that flap their active set pay a boot surcharge, amortized over
/// the epoch. Per-server CPU utilizations are computed once and shared
/// between power and latency metering; the TCT pass runs through the
/// sharded metering engine (`parallel` sets its thread budget and chunk
/// size, `ws` carries the reusable scratch — alloc-free when warm).
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

fn summarize(
    records: &[ChaosEpochRecord],
    mttr_samples: &[usize],
    unrepaired: usize,
    recoveries: usize,
) -> ResilienceSummary {
    let epochs = records.len();
    let demanded: usize = records.iter().map(|r| r.demanded).sum();
    let served: usize = records.iter().map(|r| r.served).sum();
    let n = epochs.max(1) as f64;
    ResilienceSummary {
        epochs,
        fault_events: records.iter().map(|r| r.faults).sum(),
        repair_events: records.iter().map(|r| r.repairs).sum(),
        mttr_epochs: if mttr_samples.is_empty() {
            0.0
        } else {
            mttr_samples.iter().sum::<usize>() as f64 / mttr_samples.len() as f64
        },
        unrepaired_faults: unrepaired,
        availability: if demanded == 0 {
            1.0
        } else {
            served as f64 / demanded as f64
        },
        shed_container_epochs: records.iter().map(|r| r.shed).sum(),
        fallback_epochs: records
            .iter()
            .filter(|r| r.fallback != Rung::Primary)
            .count(),
        shed_epochs: records.iter().filter(|r| r.fallback == Rung::Shed).count(),
        migrations_attempted: records.iter().map(|r| r.migration.attempted).sum(),
        migrations_completed: records.iter().map(|r| r.migration.completed).sum(),
        failed_migration_attempts: records.iter().map(|r| r.migration.failed_attempts).sum(),
        migration_retries: records.iter().map(|r| r.migration.retries).sum(),
        migrations_abandoned: records.iter().map(|r| r.migration.abandoned).sum(),
        forced_restarts: records.iter().map(|r| r.migration.forced_restarts).sum(),
        controller_recoveries: recoveries,
        avg_total_watts: records
            .iter()
            .map(ChaosEpochRecord::total_watts)
            .sum::<f64>()
            / n,
        avg_tct_ms: records.iter().map(|r| r.tct_ms).sum::<f64>() / n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::plan::{FaultPlan, FaultPlanConfig};
    use crate::scenarios::wiki_testbed;
    use goldilocks_core::GoldilocksConfig;
    use goldilocks_placement::PlaceError;

    #[test]
    fn quiescent_run_serves_everything() {
        let s = wiki_testbed(6, 40, 2);
        let run = run_chaos(&s, &Policy::EPvm, &FaultSchedule::empty(6), 1).unwrap();
        assert_eq!(run.records.len(), 6);
        assert_eq!(run.summary.availability, 1.0);
        assert_eq!(run.summary.fault_events, 0);
        assert_eq!(run.summary.forced_restarts, 0);
        assert_eq!(run.summary.controller_recoveries, 0);
        assert!(run.records.iter().all(|r| r.fallback == Rung::Primary));
    }

    #[test]
    fn mass_failure_makes_primary_placer_error() {
        use goldilocks_placement::Placer;
        let s = wiki_testbed(2, 48, 3);
        let mut tree = s.tree.clone();
        for sid in 2..16 {
            tree.fail_server(ServerId(sid));
        }
        // Nominal (peak) demand: 48 containers against 2 surviving servers.
        let w = s.base.prefix(48);
        let mut gold = goldilocks_core::Goldilocks::with_config(GoldilocksConfig::paper());
        let err = gold.place(&w, &tree);
        assert!(
            matches!(
                err,
                Err(PlaceError::Unplaceable { .. }) | Err(PlaceError::Infeasible { .. })
            ),
            "48 containers cannot fit 3 servers under the paper caps: {err:?}"
        );
    }

    #[test]
    fn mass_server_failure_engages_fallback_chain() {
        let s = wiki_testbed(4, 48, 3);
        // Epoch 1 kills 13 of the 16 testbed servers; capacity collapses
        // far below demand, so Goldilocks's primary build must fail and a
        // placement must still be produced further down the ladder.
        let mut schedule = FaultSchedule::empty(4);
        for sid in 3..16 {
            schedule.events[1].push(FaultEvent::ServerCrash(ServerId(sid)));
        }
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let run = run_chaos(&s, &policy, &schedule, 7).unwrap();
        assert_eq!(run.records.len(), 4, "run must survive the crash epoch");
        let crash = &run.records[1];
        assert_eq!(crash.healthy_servers, 3);
        assert_ne!(
            crash.fallback,
            Rung::Primary,
            "primary cannot fit 3 servers"
        );
        assert!(
            crash.served > 0,
            "a degraded placement must still serve something"
        );
        assert!(crash.served <= crash.demanded);
        assert!(
            run.summary.availability < 1.0,
            "shedding must dent availability"
        );
        assert!(run.summary.shed_container_epochs > 0);
    }

    #[test]
    fn crashed_servers_force_cold_restarts() {
        let s = wiki_testbed(3, 40, 5);
        let mut schedule = FaultSchedule::empty(3);
        // One server dies at epoch 1 and never comes back.
        schedule.events[1].push(FaultEvent::ServerCrash(ServerId(0)));
        let run = run_chaos(&s, &Policy::EPvm, &schedule, 11).unwrap();
        // E-PVM spreads over all 16 servers, so server 0 hosted containers
        // that must cold-restart elsewhere.
        assert!(run.summary.forced_restarts > 0);
        assert_eq!(
            run.summary.availability, 1.0,
            "spare capacity absorbs one crash"
        );
    }

    #[test]
    fn chaos_run_is_deterministic() {
        let s = wiki_testbed(10, 48, 4);
        let plan = FaultPlan {
            config: FaultPlanConfig::default(),
            seed: 99,
        };
        let schedule = plan.schedule(10, &s.tree);
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let a = run_chaos(&s, &policy, &schedule, 99).unwrap();
        let b = run_chaos(&s, &policy, &schedule, 99).unwrap();
        assert_eq!(format!("{:?}", a.records), format!("{:?}", b.records));
        assert_eq!(format!("{:?}", a.summary), format!("{:?}", b.summary));
    }

    #[test]
    fn migration_storm_causes_retries_or_abandons() {
        let mut s = wiki_testbed(8, 48, 6);
        // Make every attempt fail while the storm lasts.
        let mut schedule = FaultSchedule::empty(8);
        schedule.events[1].push(FaultEvent::MigrationStorm { failure_prob: 1.0 });
        // Never let the storm end; every migration in epochs 1.. fails.
        s.migration.max_retries = 1;
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let run = run_chaos(&s, &policy, &schedule, 13).unwrap();
        if run.summary.migrations_attempted > 0 {
            assert_eq!(
                run.summary.migrations_completed, 0,
                "storm fails all attempts"
            );
            assert!(run.summary.failed_migration_attempts > 0);
            assert_eq!(
                run.summary.migrations_abandoned,
                run.summary.migrations_attempted
            );
        }
    }

    #[test]
    fn mttr_measured_from_fault_to_repair() {
        let s = wiki_testbed(6, 40, 8);
        let mut schedule = FaultSchedule::empty(6);
        schedule.events[1].push(FaultEvent::ServerCrash(ServerId(2)));
        schedule.events[4].push(FaultEvent::ServerRestore(ServerId(2)));
        let run = run_chaos(&s, &Policy::EPvm, &schedule, 21).unwrap();
        assert_eq!(run.summary.mttr_epochs, 3.0);
        assert_eq!(run.summary.repair_events, 1);
        assert_eq!(run.summary.unrepaired_faults, 0);
    }

    #[test]
    fn in_band_controller_crash_is_placement_invisible() {
        let s = wiki_testbed(8, 48, 9);
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let quiet = FaultSchedule::empty(8);
        let mut crashy = FaultSchedule::empty(8);
        crashy.events[2].push(FaultEvent::ControllerCrash);
        crashy.events[5].push(FaultEvent::ControllerCrash);

        let a = run_chaos(&s, &policy, &quiet, 17).unwrap();
        let b = run_chaos(&s, &policy, &crashy, 17).unwrap();
        assert_eq!(b.summary.controller_recoveries, 2);
        assert!(b.records[2].recovered && b.records[5].recovered);
        // With an intact WAL, recovery must not perturb the trajectory.
        let served_a: Vec<usize> = a.records.iter().map(|r| r.served).collect();
        let served_b: Vec<usize> = b.records.iter().map(|r| r.served).collect();
        assert_eq!(served_a, served_b);
        let watts_a: Vec<String> = a
            .records
            .iter()
            .map(|r| format!("{:.6}", r.server_watts))
            .collect();
        let watts_b: Vec<String> = b
            .records
            .iter()
            .map(|r| format!("{:.6}", r.server_watts))
            .collect();
        assert_eq!(watts_a, watts_b);
    }

    /// Every commit compacts the WAL, so each crash point below resumes
    /// from a compacted log (epoch 0's mid-epoch crash excepted).
    const COMPACTING_EPOCHS: usize = 18;

    #[test]
    fn boundary_crash_resume_matches_uninterrupted_run() {
        let s = wiki_testbed(COMPACTING_EPOCHS, 48, 10);
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let plan = FaultPlan {
            config: FaultPlanConfig {
                controller_crash_rate: 0.0,
                ..FaultPlanConfig::default()
            },
            seed: 31,
        };
        let schedule = plan.schedule(COMPACTING_EPOCHS, &s.tree);
        let n = s.base.containers.len();

        let mut base = ChaosDriver::new(&s, &policy, &schedule, 31);
        base.run_remaining().unwrap();
        let reference = base.assignment(n);

        for boundary in [1usize, 4, 9, 17] {
            let mut first = ChaosDriver::new(&s, &policy, &schedule, 31);
            first.run_to(boundary).unwrap();
            let wal = first.wal_bytes().to_vec();
            let dp = first.data_plane();
            drop(first);

            // Warm resume: the data plane survived the controller.
            let mut warm = ChaosDriver::resume(&s, &policy, &schedule, 31, &wal, Some(dp)).unwrap();
            assert_eq!(warm.next_epoch(), boundary);
            warm.run_remaining().unwrap();
            assert_eq!(warm.assignment(n), reference, "warm resume at {boundary}");

            // Cold resume: data plane rebuilt from the log alone.
            let mut cold = ChaosDriver::resume(&s, &policy, &schedule, 31, &wal, None).unwrap();
            cold.run_remaining().unwrap();
            assert_eq!(cold.assignment(n), reference, "cold resume at {boundary}");
        }
    }

    #[test]
    fn mid_epoch_crash_resume_matches_uninterrupted_run() {
        let mut s = wiki_testbed(COMPACTING_EPOCHS, 48, 11);
        // Force migration churn so epochs actually have units to crash in.
        s.migration.failure_prob = 0.3;
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let schedule = FaultSchedule::empty(COMPACTING_EPOCHS);
        let n = s.base.containers.len();

        let mut base = ChaosDriver::new(&s, &policy, &schedule, 77);
        base.run_remaining().unwrap();
        let reference = base.assignment(n);

        for (epoch, units) in [(0usize, 3usize), (3, 1), (9, 5), (16, 2)] {
            let mut first = ChaosDriver::new(&s, &policy, &schedule, 77);
            first.run_to(epoch).unwrap();
            let completed = first.step_epoch(Some(units)).unwrap();
            let wal = first.wal_bytes().to_vec();
            let dp = first.data_plane();
            drop(first);

            let mut resumed =
                ChaosDriver::resume(&s, &policy, &schedule, 77, &wal, Some(dp)).unwrap();
            if !completed {
                assert_eq!(resumed.next_epoch(), epoch, "epoch must still be open");
            }
            resumed.run_remaining().unwrap();
            assert_eq!(
                resumed.assignment(n),
                reference,
                "mid-epoch resume at epoch {epoch} after {units} units"
            );
        }
    }

    #[test]
    fn wal_holds_the_last_snapshot_and_the_open_epoch() {
        let epochs = 20;
        let mut s = wiki_testbed(epochs, 48, 11);
        // The last epoch stops 8 containers, so it has units to crash in.
        s.epochs[epochs - 1].container_count = 40;
        let policy = Policy::Goldilocks(GoldilocksConfig::paper());
        let schedule = FaultSchedule::empty(epochs);
        let snapshot_of = |bytes: &[u8]| match Wal::decode(bytes).events.first() {
            Some(WalEvent::Snapshot(state)) => state.committed_epoch,
            other => panic!("the log must open with a snapshot, not {other:?}"),
        };

        // A crash inside the last epoch: the log is the previous commit's
        // snapshot, then only the open epoch's records.
        let mut d = ChaosDriver::new(&s, &policy, &schedule, 77);
        d.run_to(epochs - 1).unwrap();
        assert!(!d.step_epoch(Some(0)).unwrap(), "the epoch must stay open");
        assert_eq!(snapshot_of(d.wal_bytes()), Some(epochs as u64 - 2));
        let log = Wal::decode(d.wal_bytes());
        assert!(!log.torn_tail);
        assert!(matches!(
            log.events[1],
            WalEvent::EpochBegin { epoch, .. } if epoch == epochs as u64 - 1
        ));
        assert_eq!(log.events.len(), 3, "snapshot, begin, decision");

        // A finished run's log is its last commit's snapshot alone.
        let mut d = ChaosDriver::new(&s, &policy, &schedule, 77);
        d.run_remaining().unwrap();
        assert_eq!(snapshot_of(d.wal_bytes()), Some(epochs as u64 - 1));
        assert_eq!(Wal::decode(d.wal_bytes()).events.len(), 1);
    }

    #[test]
    fn torn_tail_resume_recovers_and_finishes() {
        let s = wiki_testbed(6, 40, 12);
        let policy = Policy::EPvm;
        let schedule = FaultSchedule::empty(6);
        let n = s.base.containers.len();

        let mut first = ChaosDriver::new(&s, &policy, &schedule, 5);
        first.run_to(3).unwrap();
        let mut wal = first.wal_bytes().to_vec();
        let dp = first.data_plane();
        drop(first);
        // Tear the final record mid-write.
        wal.truncate(wal.len() - 5);

        let mut resumed = ChaosDriver::resume(&s, &policy, &schedule, 5, &wal, Some(dp)).unwrap();
        resumed.run_remaining().unwrap();
        let run = resumed.finish();
        assert!(run.summary.controller_recoveries >= 1);
        // The run must complete with every container placed.
        let mut last = ChaosDriver::new(&s, &policy, &schedule, 5);
        last.run_remaining().unwrap();
        assert_eq!(
            last.assignment(n).iter().filter(|a| a.is_some()).count(),
            run.records.last().unwrap().served
        );
    }
}
