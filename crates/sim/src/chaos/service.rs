//! Service-path chaos: deterministic fault schedules and a soak driver
//! for the placement daemon.
//!
//! The control-plane chaos in [`super::plan`] attacks the *data plane*
//! (servers, switches, migrations). This module attacks the *serving
//! path*: request-burst storms that slam the admission queue, slow
//! consumers that back up the outcome outbox, WAL write stalls and short
//! writes that hit the journal-before-ack discipline, and controller
//! crashes mid-batch. Every schedule expands from its own seeded
//! [`SplitMix64`] stream — deliberately separate from [`super::FaultPlan`]'s
//! stream so adding service trials never perturbs existing seeded
//! control-plane experiments.
//!
//! [`run_service_soak`] replays a request trace against a
//! [`PlacementDaemon`] under such a schedule, crash-restarting the daemon
//! from its journal whenever a fault kills a commit, and checks that the
//! restarted timeline stays byte-identical with the journal it recovered
//! from (any divergence is reported, not papered over).

use goldilocks_cluster::WriteFault;
use goldilocks_core::ServiceConfig;
use goldilocks_rng::SplitMix64;
use goldilocks_service::{
    ClientConfig, ClientError, PlacementDaemon, Request, ServerConfig, ServiceClient,
    ServiceEpochRecord, SimFaultConfig, SimNet, SimStats, SimTransport,
};
use goldilocks_topology::{DcTree, Resources};

/// One service-path fault, scheduled at an epoch boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ServiceFaultEvent {
    /// A request storm: this epoch's trace arrivals are replayed `factor`
    /// times (re-tagged), overrunning the admission queue and bucket.
    RequestBurst {
        /// Arrival multiplier (≥ 2).
        factor: u32,
    },
    /// The outcome consumer stalls: the outbox is not drained for the next
    /// `epochs` epochs, forcing bounded-overflow drops.
    SlowConsumer {
        /// Number of epochs the consumer is stalled.
        epochs: u32,
    },
    /// The journal rejects every write for the next `epochs` epochs:
    /// submissions bounce with `WalUnavailable` and commits stall.
    WalStall {
        /// Number of epochs the journal is unavailable.
        epochs: u32,
    },
    /// One-shot short-write fault armed for this epoch's commit: any
    /// record frame longer than `cap` bytes tears, killing the commit
    /// mid-batch and forcing a crash-restart.
    WalShortWrite {
        /// Maximum frame bytes the medium accepts before tearing.
        cap: usize,
    },
    /// The daemon process dies at the epoch boundary and is restarted
    /// from its journal.
    ControllerCrash,
}

/// Rate knobs for service-path fault generation.
#[derive(Clone, Copy, Debug)]
pub struct ServiceFaultPlanConfig {
    /// Per-epoch probability of a request burst.
    pub burst_prob: f64,
    /// Largest burst multiplier (uniform in `2..=max`).
    pub burst_factor_max: u32,
    /// Per-epoch probability of a slow-consumer stall starting.
    pub slow_consumer_prob: f64,
    /// Per-epoch probability of a WAL stall starting.
    pub wal_stall_prob: f64,
    /// Longest stall, in epochs (uniform in `1..=max`).
    pub stall_epochs_max: u32,
    /// Per-epoch probability of a one-shot short-write at commit.
    pub short_write_prob: f64,
    /// Per-epoch probability of a controller crash-restart.
    pub crash_prob: f64,
}

impl Default for ServiceFaultPlanConfig {
    fn default() -> Self {
        ServiceFaultPlanConfig {
            burst_prob: 0.15,
            burst_factor_max: 3,
            slow_consumer_prob: 0.10,
            wal_stall_prob: 0.08,
            stall_epochs_max: 2,
            short_write_prob: 0.10,
            crash_prob: 0.12,
        }
    }
}

impl ServiceFaultPlanConfig {
    /// All rates zero — a fault-free soak (the metering baseline).
    pub fn quiescent() -> Self {
        ServiceFaultPlanConfig {
            burst_prob: 0.0,
            burst_factor_max: 2,
            slow_consumer_prob: 0.0,
            wal_stall_prob: 0.0,
            stall_epochs_max: 1,
            short_write_prob: 0.0,
            crash_prob: 0.0,
        }
    }
}

/// A seeded service-fault plan; expanding it yields the exact replayable
/// schedule.
#[derive(Clone, Copy, Debug)]
pub struct ServiceFaultPlan {
    /// Seed for the plan's private [`SplitMix64`] stream.
    pub seed: u64,
    /// Rate knobs.
    pub config: ServiceFaultPlanConfig,
}

/// The expanded per-epoch service-fault schedule.
#[derive(Clone, Debug)]
pub struct ServiceFaultSchedule {
    events: Vec<Vec<ServiceFaultEvent>>,
}

impl ServiceFaultSchedule {
    /// A schedule with no events over `epochs` epochs.
    pub fn empty(epochs: usize) -> Self {
        ServiceFaultSchedule {
            events: vec![Vec::new(); epochs],
        }
    }

    /// Events scheduled at the start of `epoch`.
    pub fn events_at(&self, epoch: usize) -> &[ServiceFaultEvent] {
        self.events.get(epoch).map_or(&[], Vec::as_slice)
    }

    /// Total scheduled events.
    pub fn fault_count(&self) -> usize {
        self.events.iter().map(Vec::len).sum()
    }
}

impl ServiceFaultPlan {
    /// Expands the plan into its deterministic schedule. The stream is
    /// salted away from [`super::FaultPlan`]'s so control-plane and
    /// service-path schedules sharing a seed stay independent.
    pub fn schedule(&self, epochs: usize) -> ServiceFaultSchedule {
        let mut rng = SplitMix64::from_state(self.seed ^ 0x5EE7_1CE0_0D15_EA5E);
        let c = &self.config;
        let mut events = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let mut at = Vec::new();
            if rng.chance(c.burst_prob) {
                let span = c.burst_factor_max.max(2) - 1;
                at.push(ServiceFaultEvent::RequestBurst {
                    factor: 2 + rng.below(u64::from(span)) as u32,
                });
            }
            if rng.chance(c.slow_consumer_prob) {
                at.push(ServiceFaultEvent::SlowConsumer {
                    epochs: 1 + rng.below(u64::from(c.stall_epochs_max.max(1))) as u32,
                });
            }
            if rng.chance(c.wal_stall_prob) {
                at.push(ServiceFaultEvent::WalStall {
                    epochs: 1 + rng.below(u64::from(c.stall_epochs_max.max(1))) as u32,
                });
            }
            if rng.chance(c.short_write_prob) {
                // Caps in a band that lets small frames through but tears
                // the bigger decision/snapshot frames.
                at.push(ServiceFaultEvent::WalShortWrite {
                    cap: 40 + rng.range(0..360),
                });
            }
            if rng.chance(c.crash_prob) {
                at.push(ServiceFaultEvent::ControllerCrash);
            }
            events.push(at);
        }
        ServiceFaultSchedule { events }
    }
}

/// Deterministic request-trace knobs.
#[derive(Clone, Copy, Debug)]
pub struct ServiceTraceConfig {
    /// Seed for the trace's private RNG stream.
    pub seed: u64,
    /// Mutation requests per epoch (before any burst multiplier).
    pub requests_per_epoch: usize,
    /// Fraction of mutations that are resizes (of a guessed live seq).
    pub resize_frac: f64,
    /// Fraction of mutations that are removes.
    pub remove_frac: f64,
}

impl Default for ServiceTraceConfig {
    fn default() -> Self {
        ServiceTraceConfig {
            seed: 42,
            requests_per_epoch: 24,
            resize_frac: 0.15,
            remove_frac: 0.15,
        }
    }
}

/// Generates the full `(tick, request)` trace up front — one vec per
/// epoch, independent of any faults, so fault schedules never perturb the
/// stimulus they are injected into.
pub fn generate_trace(
    cfg: &ServiceTraceConfig,
    epochs: usize,
    epoch_ticks: u64,
) -> Vec<Vec<(u64, Request)>> {
    let mut rng = SplitMix64::from_state(cfg.seed ^ 0x072A_CE7A_B1E5_u64);
    let mut out = Vec::with_capacity(epochs);
    let mut tag = 0u64;
    for e in 0..epochs as u64 {
        let base = e * epoch_ticks;
        let mut reqs = Vec::with_capacity(cfg.requests_per_epoch);
        for i in 0..cfg.requests_per_epoch as u64 {
            let tick = base + 1 + i * epoch_ticks.max(1) / (cfg.requests_per_epoch as u64 + 1);
            let priority = 1 + rng.range(0..9) as u8;
            let roll = rng.f64();
            tag += 1;
            let req = if roll < cfg.resize_frac {
                Request::Resize {
                    priority,
                    target_seq: rng.below(tag + 8),
                    demand: demand_sample(&mut rng),
                    deadline_ticks: 0,
                    tag,
                }
            } else if roll < cfg.resize_frac + cfg.remove_frac {
                Request::Remove {
                    priority,
                    target_seq: rng.below(tag + 8),
                    deadline_ticks: 0,
                    tag,
                }
            } else {
                Request::Admit {
                    priority,
                    demand: demand_sample(&mut rng),
                    deadline_ticks: 2 * epoch_ticks + rng.below(4 * epoch_ticks.max(1)),
                    tag,
                }
            };
            reqs.push((tick, req));
        }
        out.push(reqs);
    }
    out
}

fn demand_sample(rng: &mut SplitMix64) -> Resources {
    Resources::new(
        4.0 + rng.f64() * 20.0,
        0.5 + rng.f64() * 3.5,
        10.0 + rng.f64() * 90.0,
    )
}

/// The outcome of one service soak run.
#[derive(Clone, Debug)]
pub struct ServiceSoakRun {
    /// Per-epoch serving metrics (one record per trace epoch, stalled
    /// epochs included).
    pub records: Vec<ServiceEpochRecord>,
    /// Controller crash-restarts performed (scheduled + fault-forced).
    pub crashes: u64,
    /// Crash-restarts forced by mid-commit journal failures.
    pub forced_recoveries: u64,
    /// Epochs that stalled on an unavailable journal.
    pub stalled_epochs: u64,
    /// Outcome notifications observed (drained from the outbox).
    pub outcomes_drained: u64,
    /// Final journal bytes (the durable artifact of the whole run).
    pub final_wal: Vec<u8>,
    /// True when every crash-restart stayed on the recovered journal's
    /// timeline (prefix-exact); any divergence flips this to false.
    pub replay_consistent: bool,
}

impl ServiceSoakRun {
    /// Totals of the stable backpressure counters across the run:
    /// `(sheds, rejects, max queue depth)`.
    pub fn backpressure_totals(&self) -> (u64, u64, u64) {
        let sheds = self
            .records
            .iter()
            .map(|r| r.shed_queue + r.shed_planner)
            .sum();
        let rejects = self
            .records
            .iter()
            .map(|r| r.rejected_queue + r.rejected_throttle + r.rejected_wal)
            .sum();
        let depth = self
            .records
            .iter()
            .map(|r| r.queue_depth_max)
            .max()
            .unwrap_or(0);
        (sheds, rejects, depth)
    }
}

/// Soak configuration: daemon config + trace + fault plan + length.
#[derive(Clone, Debug)]
pub struct ServiceSoakConfig {
    /// The daemon configuration under test.
    pub service: ServiceConfig,
    /// Request-trace knobs.
    pub trace: ServiceTraceConfig,
    /// Service-path fault plan.
    pub faults: ServiceFaultPlan,
    /// Number of epochs to drive.
    pub epochs: usize,
}

/// Drives a [`PlacementDaemon`] through a seeded request trace under a
/// seeded service-fault schedule. Deterministic end to end: the same
/// `(tree, config)` pair reproduces the identical [`ServiceSoakRun`],
/// byte-identical journal included.
pub fn run_service_soak(tree: &DcTree, cfg: &ServiceSoakConfig) -> ServiceSoakRun {
    let trace = generate_trace(&cfg.trace, cfg.epochs, cfg.service.epoch_ticks);
    let schedule = cfg.faults.schedule(cfg.epochs);
    let mut daemon = PlacementDaemon::new(cfg.service.clone(), tree.clone());

    let mut run = ServiceSoakRun {
        records: Vec::with_capacity(cfg.epochs),
        crashes: 0,
        forced_recoveries: 0,
        stalled_epochs: 0,
        outcomes_drained: 0,
        final_wal: Vec::new(),
        replay_consistent: true,
    };
    let mut stall_left = 0u32;
    let mut slow_left = 0u32;

    for (epoch, reqs) in trace.iter().enumerate() {
        let mut burst = 1u32;
        let mut short_write: Option<usize> = None;
        for ev in schedule.events_at(epoch) {
            match *ev {
                ServiceFaultEvent::RequestBurst { factor } => burst = factor,
                ServiceFaultEvent::SlowConsumer { epochs } => slow_left = slow_left.max(epochs),
                ServiceFaultEvent::WalStall { epochs } => stall_left = stall_left.max(epochs),
                ServiceFaultEvent::WalShortWrite { cap } => short_write = Some(cap),
                ServiceFaultEvent::ControllerCrash => {
                    let wal = daemon.wal_bytes().to_vec();
                    match PlacementDaemon::recover(cfg.service.clone(), tree.clone(), &wal) {
                        Ok((d, _)) => {
                            run.crashes += 1;
                            if !wal.starts_with(d.wal_bytes()) {
                                run.replay_consistent = false;
                            }
                            daemon = d;
                        }
                        Err(_) => run.replay_consistent = false,
                    }
                }
            }
        }

        let stalled = stall_left > 0;
        daemon.set_wal_fault(stalled.then_some(WriteFault::DiskFull));

        // Submit the epoch's arrivals (burst replays re-tag by round).
        for round in 0..u64::from(burst) {
            for (tick, req) in reqs {
                let req = if round == 0 {
                    req.clone()
                } else {
                    retag(req, round)
                };
                let _ = daemon.submit(*tick, req);
            }
        }

        // Arm the one-shot short write for the commit.
        if let Some(cap) = short_write {
            if !stalled {
                daemon.set_wal_fault(Some(WriteFault::ShortWrite(cap)));
            }
        }

        match daemon.commit_epoch(epoch as u64) {
            Ok(rec) => {
                if rec.stalled {
                    run.stalled_epochs += 1;
                }
                run.records.push(rec);
                daemon.set_wal_fault(None);
            }
            Err(_) => {
                // Mid-commit journal death: crash-restart from the log.
                // Recovery rolls the epoch forward to its commit.
                let wal = daemon.wal_bytes().to_vec();
                match PlacementDaemon::recover(cfg.service.clone(), tree.clone(), &wal) {
                    Ok((d, _)) => {
                        run.crashes += 1;
                        run.forced_recoveries += 1;
                        if !d.wal_bytes().starts_with(&wal) && !wal.starts_with(d.wal_bytes()) {
                            run.replay_consistent = false;
                        }
                        daemon = d;
                        run.records
                            .push(rolled_forward_record(epoch as u64, &daemon));
                    }
                    Err(_) => {
                        run.replay_consistent = false;
                        daemon.set_wal_fault(None);
                    }
                }
            }
        }

        if slow_left > 0 {
            slow_left -= 1;
        } else {
            run.outcomes_drained += daemon.drain_outbox().len() as u64;
        }
        stall_left = stall_left.saturating_sub(1);
    }

    run.final_wal = daemon.wal_bytes().to_vec();
    run
}

/// The stand-in epoch record for a commit completed by crash recovery
/// (the live record died with the process; volatile counters are gone,
/// but the durable outcome is inspectable).
fn rolled_forward_record(epoch: u64, d: &PlacementDaemon) -> ServiceEpochRecord {
    ServiceEpochRecord {
        epoch,
        live: d.live(),
        queue_depth_end: d.queue_depth() as u64,
        wal_bytes: d.wal_bytes().len() as u64,
        ..ServiceEpochRecord::default()
    }
}

fn retag(req: &Request, round: u64) -> Request {
    let bump = round << 32;
    match *req {
        Request::Admit {
            priority,
            demand,
            deadline_ticks,
            tag,
        } => Request::Admit {
            priority,
            demand,
            deadline_ticks,
            tag: tag | bump,
        },
        Request::Resize {
            priority,
            target_seq,
            demand,
            deadline_ticks,
            tag,
        } => Request::Resize {
            priority,
            target_seq,
            demand,
            deadline_ticks,
            tag: tag | bump,
        },
        Request::Remove {
            priority,
            target_seq,
            deadline_ticks,
            tag,
        } => Request::Remove {
            priority,
            target_seq,
            deadline_ticks,
            tag: tag | bump,
        },
        Request::Query { target_seq, tag } => Request::Query {
            target_seq,
            tag: tag | bump,
        },
    }
}

/// Transport-layer chaos configuration: a fleet of real
/// [`ServiceClient`]s driven over the deterministic [`SimNet`] fault
/// fabric, with seeded socket faults and kill -9 restarts.
#[derive(Clone, Debug)]
pub struct TransportChaosConfig {
    /// The daemon configuration under test.
    pub service: ServiceConfig,
    /// Seeded socket-fault rates.
    pub faults: SimFaultConfig,
    /// Number of concurrent client identities.
    pub clients: usize,
    /// Rounds of traffic to drive.
    pub rounds: usize,
    /// Logical calls per client per round.
    pub calls_per_round: usize,
    /// Fraction of calls that remove a previously admitted container.
    pub remove_frac: f64,
    /// Per-round probability of a kill -9 + journal recovery.
    pub crash_prob: f64,
    /// Virtual milliseconds to advance between rounds.
    pub advance_ms: u64,
    /// Seed for the runner's own decision stream (crashes, call mix).
    pub seed: u64,
}

impl Default for TransportChaosConfig {
    fn default() -> Self {
        TransportChaosConfig {
            service: ServiceConfig::default(),
            faults: SimFaultConfig::quiet(42),
            clients: 8,
            rounds: 12,
            calls_per_round: 4,
            remove_frac: 0.3,
            crash_prob: 0.15,
            advance_ms: 60,
            seed: 42,
        }
    }
}

/// The outcome of one transport chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct TransportChaosRun {
    /// Logical calls issued across all clients.
    pub calls: u64,
    /// Calls that returned a durable sequence number.
    pub ok: u64,
    /// Calls whose accept was shed under overload (typed, with seq).
    pub typed_shed: u64,
    /// Calls whose accept expired before commit (typed, with seq).
    pub typed_expired: u64,
    /// Calls rejected with backpressure through every attempt.
    pub overloaded: u64,
    /// Calls that exhausted retries at the transport level.
    pub transport_failed: u64,
    /// Distinct accepts observed more than once — double placements.
    /// Zero is the idempotency invariant.
    pub duplicate_seqs: u64,
    /// Accepts the daemon journaled that no client observed. Exact (and
    /// required zero) when `transport_failed == 0`.
    pub lost_accepts: u64,
    /// Client reconnects summed across the fleet.
    pub reconnects: u64,
    /// kill -9 restarts performed.
    pub crashes: u64,
    /// Every recovery stayed on the journal's timeline (prefix-exact).
    pub replay_consistent: bool,
    /// Fabric fault counters.
    pub sim: SimStats,
    /// Containers live at the end.
    pub final_live: u64,
    /// Final journal bytes.
    pub final_wal: Vec<u8>,
}

/// Drives `clients` real [`ServiceClient`]s over a seeded [`SimNet`]
/// fault fabric: connections are cut mid-frame, reads split, writers
/// stalled, peers half-open, and the daemon is kill -9'd and recovered
/// from its journal mid-traffic. Deterministic end to end.
///
/// The invariant checked downstream: every call outcome carrying a seq
/// (`Ok`, `Shed`, `Expired`) maps to exactly one journaled accept —
/// retries through all that weather never double-place, and (absent
/// transport-exhausted calls) never lose an accept.
pub fn run_transport_chaos(tree: &DcTree, cfg: &TransportChaosConfig) -> TransportChaosRun {
    use std::collections::BTreeSet;

    let net = SimNet::new(
        cfg.service.clone(),
        tree.clone(),
        ServerConfig::default(),
        cfg.faults,
    );
    let mut rng = SplitMix64::from_state(cfg.seed ^ 0x7A11_5B0B_17C0_DE5A);
    let mut clients: Vec<ServiceClient<SimTransport>> = (0..cfg.clients)
        .map(|i| {
            ServiceClient::new(
                net.transport(),
                ClientConfig {
                    client_id: 1 + i as u64,
                    request_timeout_ms: 200,
                    max_attempts: 16,
                    backoff_base_ms: 2,
                    backoff_cap_ms: 40,
                    jitter_seed: cfg.seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
                    ..ClientConfig::default()
                },
            )
        })
        .collect();
    let mut pools: Vec<Vec<u64>> = vec![Vec::new(); cfg.clients];

    let mut run = TransportChaosRun {
        calls: 0,
        ok: 0,
        typed_shed: 0,
        typed_expired: 0,
        overloaded: 0,
        transport_failed: 0,
        duplicate_seqs: 0,
        lost_accepts: 0,
        reconnects: 0,
        crashes: 0,
        replay_consistent: true,
        sim: SimStats::default(),
        final_live: 0,
        final_wal: Vec::new(),
    };
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut observe = |run: &mut TransportChaosRun, seq: u64| {
        if !seen.insert(seq) {
            run.duplicate_seqs += 1;
        }
    };

    for _round in 0..cfg.rounds {
        if rng.chance(cfg.crash_prob) {
            // kill -9 with the journal intact (the in-memory WAL *is* the
            // durable medium); recovery may append roll-forward records
            // but must never rewrite history.
            let before = net.with_daemon(|d| d.wal_bytes().to_vec());
            match net.crash_restart() {
                Ok(_) => {
                    run.crashes += 1;
                    let after = net.with_daemon(|d| d.wal_bytes().to_vec());
                    if !after.starts_with(&before) {
                        run.replay_consistent = false;
                    }
                }
                Err(_) => run.replay_consistent = false,
            }
        }
        for (ci, client) in clients.iter_mut().enumerate() {
            for _ in 0..cfg.calls_per_round {
                run.calls += 1;
                let priority = 1 + rng.range(0..9) as u8;
                let do_remove = !pools[ci].is_empty() && rng.chance(cfg.remove_frac);
                let outcome = if do_remove {
                    let pick = rng.range(0..pools[ci].len());
                    let target = pools[ci].remove(pick);
                    client.remove(target, priority, 0)
                } else {
                    client.admit(priority, demand_sample_sm(&mut rng), 0)
                };
                match outcome {
                    Ok(seq) => {
                        run.ok += 1;
                        observe(&mut run, seq);
                        if !do_remove {
                            pools[ci].push(seq);
                        }
                    }
                    Err(ClientError::Shed { seq }) => {
                        run.typed_shed += 1;
                        observe(&mut run, seq);
                    }
                    Err(ClientError::Expired { seq }) => {
                        run.typed_expired += 1;
                        observe(&mut run, seq);
                    }
                    Err(ClientError::Overloaded { .. }) => run.overloaded += 1,
                    Err(ClientError::Transport(_)) => run.transport_failed += 1,
                    Err(_) => run.replay_consistent = false,
                }
            }
        }
        net.advance(cfg.advance_ms);
    }

    for c in &clients {
        run.reconnects += c.stats().reconnects;
    }
    run.lost_accepts = net
        .with_daemon(|d| d.seqs_issued())
        .saturating_sub(seen.len() as u64);
    run.sim = net.stats();
    run.final_live = net.with_daemon(|d| d.live());
    run.final_wal = net.with_daemon(|d| d.wal_bytes().to_vec());
    run
}

fn demand_sample_sm(rng: &mut SplitMix64) -> Resources {
    Resources::new(
        4.0 + rng.f64() * 16.0,
        0.5 + rng.f64() * 2.5,
        10.0 + rng.f64() * 40.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_service::ServerStats;
    use goldilocks_topology::builders::single_rack;

    fn tree() -> DcTree {
        single_rack(4, Resources::new(100.0, 16.0, 1000.0), 1000.0)
    }

    fn soak_cfg(seed: u64) -> ServiceSoakConfig {
        ServiceSoakConfig {
            service: ServiceConfig {
                queue_capacity: 16,
                batch_max: 16,
                bucket_capacity: 48,
                tokens_per_epoch: 32,
                snapshot_every: 4,
                ..ServiceConfig::default()
            },
            trace: ServiceTraceConfig {
                seed,
                ..ServiceTraceConfig::default()
            },
            faults: ServiceFaultPlan {
                seed,
                config: ServiceFaultPlanConfig::default(),
            },
            epochs: 12,
        }
    }

    #[test]
    fn soak_replays_byte_identically() {
        let a = run_service_soak(&tree(), &soak_cfg(7));
        let b = run_service_soak(&tree(), &soak_cfg(7));
        assert!(a.replay_consistent);
        assert_eq!(a.final_wal, b.final_wal, "soak must be deterministic");
        assert_eq!(a.records, b.records);
        assert_eq!(
            (a.crashes, a.forced_recoveries, a.stalled_epochs),
            (b.crashes, b.forced_recoveries, b.stalled_epochs)
        );
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let plan = ServiceFaultPlan {
            seed: 3,
            config: ServiceFaultPlanConfig::default(),
        };
        let s1 = plan.schedule(50);
        let s2 = plan.schedule(50);
        for e in 0..50 {
            assert_eq!(s1.events_at(e), s2.events_at(e));
        }
        let other = ServiceFaultPlan {
            seed: 4,
            config: ServiceFaultPlanConfig::default(),
        }
        .schedule(50);
        assert!(
            (0..50).any(|e| s1.events_at(e) != other.events_at(e)),
            "different seeds must differ somewhere"
        );
        assert!(s1.fault_count() > 0);
    }

    fn transport_cfg(seed: u64) -> TransportChaosConfig {
        TransportChaosConfig {
            service: ServiceConfig {
                queue_capacity: 64,
                batch_max: 64,
                bucket_capacity: 256,
                tokens_per_epoch: 128,
                snapshot_every: 8,
                ..ServiceConfig::default()
            },
            faults: SimFaultConfig {
                seed,
                cut_per_write: 0.08,
                partial_write: 0.20,
                stall_on_connect: 0.08,
                unstall_per_read: 0.25,
                chunked_reads: true,
            },
            seed,
            ..TransportChaosConfig::default()
        }
    }

    #[test]
    fn transport_chaos_replays_byte_identically() {
        let a = run_transport_chaos(&tree(), &transport_cfg(13));
        let b = run_transport_chaos(&tree(), &transport_cfg(13));
        assert_eq!(a, b, "transport chaos must be deterministic");
        // The faults actually fired: the run is not vacuous.
        assert!(a.sim.cuts > 0 || a.sim.stalls > 0, "no socket faults fired");
        assert!(a.reconnects > 0, "no client ever had to reconnect");
        assert!(a.crashes > 0, "no kill -9 was rolled");
    }

    #[test]
    fn transport_chaos_never_duplicates_or_loses_accepts() {
        let run = run_transport_chaos(&tree(), &transport_cfg(13));
        assert!(run.replay_consistent, "a recovery rewrote journal history");
        assert_eq!(run.duplicate_seqs, 0, "a retry double-placed");
        assert_eq!(
            run.transport_failed, 0,
            "a call exhausted its retries; raise attempts or lower fault rates"
        );
        assert_eq!(run.lost_accepts, 0, "a journaled accept vanished");
        assert!(run.ok > 0);
    }

    fn quiet_transport_cfg() -> TransportChaosConfig {
        let mut cfg = transport_cfg(5);
        cfg.faults = SimFaultConfig::quiet(5);
        cfg.crash_prob = 0.0;
        cfg
    }

    /// A run's counters by value: the run's own, the fabric's fault
    /// counters, and the final journal's length and CRC-32.
    fn known_answers(run: &TransportChaosRun) -> ([u64; 11], [u64; 4], bool, usize, u32) {
        (
            [
                run.calls,
                run.ok,
                run.typed_shed,
                run.typed_expired,
                run.overloaded,
                run.transport_failed,
                run.duplicate_seqs,
                run.lost_accepts,
                run.reconnects,
                run.crashes,
                run.final_live,
            ],
            [
                run.sim.cuts,
                run.sim.stalls,
                run.sim.unstalls,
                run.sim.crashes,
            ],
            run.replay_consistent,
            run.final_wal.len(),
            goldilocks_cluster::crc32(&run.final_wal),
        )
    }

    #[test]
    fn transport_chaos_known_answers() {
        let chaos = run_transport_chaos(&tree(), &transport_cfg(13));
        let quiet = run_transport_chaos(&tree(), &quiet_transport_cfg());
        assert_eq!(
            known_answers(&chaos),
            (
                [384, 384, 0, 0, 0, 0, 0, 0, 53, 1, 30],
                [45, 4, 4, 1],
                true,
                13_940,
                3_153_425_742
            )
        );
        assert_eq!(
            known_answers(&quiet),
            (
                [384, 384, 0, 0, 0, 0, 0, 0, 0, 0, 30],
                [0, 0, 0, 0],
                true,
                21_827,
                123_544_353
            )
        );
    }

    /// The fabric's server-side counters for the same two runs, by value.
    #[test]
    fn transport_chaos_server_counters_known_answers() {
        let chaos = run_transport_chaos(&tree(), &transport_cfg(13));
        let quiet = run_transport_chaos(&tree(), &quiet_transport_cfg());
        let expect = |conns_accepted, epochs_committed, placed_total| ServerStats {
            conns_accepted,
            epochs_committed,
            placed_total,
            live_conns: 8,
            ..ServerStats::default()
        };
        assert_eq!(chaos.sim.server, expect(61, 60, 131));
        assert_eq!(quiet.sim.server, expect(8, 29, 127));
    }

    #[test]
    fn quiet_transport_run_is_fault_free() {
        let run = run_transport_chaos(&tree(), &quiet_transport_cfg());
        assert_eq!(run.transport_failed, 0);
        assert_eq!(run.duplicate_seqs, 0);
        assert_eq!(run.lost_accepts, 0);
        assert_eq!(run.crashes, 0);
        assert_eq!(run.reconnects, 0);
        assert_eq!(
            run.sim.cuts + run.sim.stalls + run.sim.server.overflow_disconnects,
            0
        );
        assert_eq!(
            run.calls,
            run.ok + run.typed_shed + run.typed_expired + run.overloaded
        );
    }

    #[test]
    fn quiescent_soak_has_no_chaos_artifacts() {
        let mut cfg = soak_cfg(11);
        cfg.faults.config = ServiceFaultPlanConfig::quiescent();
        let run = run_service_soak(&tree(), &cfg);
        assert_eq!(run.crashes, 0);
        assert_eq!(run.forced_recoveries, 0);
        assert_eq!(run.stalled_epochs, 0);
        assert!(run.replay_consistent);
        assert_eq!(run.records.len(), 12);
        // No WAL rejections without WAL faults.
        assert!(run.records.iter().all(|r| r.rejected_wal == 0));
    }
}
