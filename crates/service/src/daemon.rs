//! The placement daemon: admission → journal → epoch batch → placement.
//!
//! ## Request path (robustness core)
//!
//! A mutation (admit/resize/remove) passes three gates, cheapest first:
//!
//! 1. **Token bucket** — sustained-rate admission control; empty bucket ⇒
//!    `Rejected(Throttled)` with a retry-after hint.
//! 2. **Bounded queue** — a full queue either sheds its lowest-priority
//!    entry (if the arrival outranks it, the victim gets an explicit
//!    `Shed`) or rejects the arrival (`Rejected(QueueFull)`). The queue
//!    never grows past its bound.
//! 3. **Journal before ack** — the accept is appended to the WAL as a
//!    [`WalEvent::Service`] record; only a durable append is acknowledged
//!    (`Accepted{seq}`). A write stall surfaces as
//!    `Rejected(WalUnavailable)` — explicit backpressure, not a lie.
//!
//! Queries are read-only, free, and never journaled.
//!
//! ## Epoch driver
//!
//! [`PlacementDaemon::commit_epoch`] drains a bounded batch, times out
//! entries whose deadline does not cover the commit tick, applies the
//! surviving operations to the tenant ledger, and plans a placement through
//! the Goldilocks [`Ladder`] of `goldilocks-core`, kept across commits so
//! its primary rung's graph cache stays warm; tenants the shed rung drops
//! get explicit `Shed` responses. The resulting transitions reconcile the
//! container runtime, each journaled as a `Unit` before it is applied —
//! exactly the chaos driver's discipline, minus failure rolls (`rng_state`
//! is logged as a constant).
//!
//! ## Crash recovery
//!
//! [`PlacementDaemon::recover`] rebuilds the daemon from raw WAL bytes:
//! the cluster-side [`goldilocks_cluster::recover`] restores the runtime
//! and committed placement, and a deterministic replay of the service
//! records (anchored on the latest service snapshot) reconstructs the
//! ledger, queue, token bucket, and sequence counter. An epoch interrupted
//! mid-batch is rolled forward to its commit using the logged decision —
//! or a deterministic re-plan when the crash preceded the decision — so a
//! crash-restarted daemon converges to a byte-identical log and placement.
//!
//! ## Journal compaction
//!
//! Every `snapshot_every`-th commit ends with a snapshot pair: a cluster
//! `Snapshot` followed by a service snapshot. Together they hold all the
//! state replay rebuilds, so [`PlacementDaemon::compact_journal`] may drop
//! every byte before the latest complete pair (its offset is recorded only
//! once both records are durable). A compacted journal therefore starts
//! with a pair, and recovery rejects one whose service half is missing.
//! The TCP server compacts after each commit; in-process embedders never
//! call it and keep the whole log, which is what the record-boundary crash
//! drills cut.

use goldilocks_cluster::{
    recover as cluster_recover, ClusterError, ClusterState, ContainerRuntime, Disposition, Wal,
    WalEvent, WriteFault,
};
use goldilocks_core::{Goldilocks, Ladder, ServiceConfig};
use goldilocks_placement::Placement;
use goldilocks_topology::{DcTree, Resources, ServerId};
use goldilocks_workload::Workload;

use crate::deadline::{epoch_commit_tick, Deadline};
use crate::dedup::{DedupOutcome, DedupWindow};
use crate::journal::SvcRecord;
use crate::proto::{self, Envelope, Request, Response, Session};
use crate::queue::{AdmissionQueue, PushOutcome, PushPlan, QueueEntry, TokenBucket};

/// Errors surfaced by the daemon.
#[derive(Clone, Debug, PartialEq)]
pub enum ServiceError {
    /// A WAL append failed mid-commit. The daemon's volatile state may be
    /// ahead of the journal; the embedder must crash-restart it from
    /// [`PlacementDaemon::wal_bytes`] (which is exactly what the soak
    /// harness's fault schedule exercises).
    Wal,
    /// The journal replayed to an inconsistent service history.
    Recovery(String),
    /// A control-plane error during replay or reconciliation.
    Cluster(ClusterError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Wal => write!(f, "wal append failed mid-commit; restart from the log"),
            ServiceError::Recovery(m) => write!(f, "service recovery failed: {m}"),
            ServiceError::Cluster(e) => write!(f, "cluster error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ClusterError> for ServiceError {
    fn from(e: ClusterError) -> Self {
        ServiceError::Cluster(e)
    }
}

/// One admitted tenant occupying a ledger slot.
#[derive(Clone, Debug, PartialEq)]
pub struct Tenant {
    /// The admit's durable sequence number.
    pub seq: u64,
    /// Shed priority (higher survives longer).
    pub priority: u8,
    /// Current resource demand.
    pub demand: Resources,
    /// Client tag from the admit, echoed in async outcomes.
    pub tag: u64,
}

/// Per-epoch serving metrics, emitted by [`PlacementDaemon::commit_epoch`].
///
/// The shed/backpressure counters (`shed_queue`, `shed_planner`,
/// `rejected_*`, `queue_depth_max`) are stable columns in the soak report —
/// metering regression tests lock their layout.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceEpochRecord {
    /// Epoch index.
    pub epoch: u64,
    /// Mutation submissions seen since the previous commit.
    pub arrivals: u64,
    /// Mutations journaled and acknowledged.
    pub accepted: u64,
    /// Rejections: token bucket empty.
    pub rejected_throttle: u64,
    /// Rejections: queue full, arrival did not outrank anyone.
    pub rejected_queue: u64,
    /// Rejections: WAL write stall on the accept path.
    pub rejected_wal: u64,
    /// Accepted-then-evicted by a higher-priority arrival (explicit Shed).
    pub shed_queue: u64,
    /// Shed by the degradation ladder at plan time (explicit Shed).
    pub shed_planner: u64,
    /// Batch entries whose deadline lapsed before the commit tick.
    pub expired: u64,
    /// Admits placed this epoch.
    pub placed: u64,
    /// Resizes applied this epoch.
    pub resized: u64,
    /// Removes applied this epoch.
    pub removed: u64,
    /// Resize/remove targets that no longer existed.
    pub not_found: u64,
    /// Occupied ledger slots after the commit.
    pub live: u64,
    /// Deepest the admission queue got since the previous commit.
    pub queue_depth_max: u64,
    /// Queue depth after the batch drain.
    pub queue_depth_end: u64,
    /// Outcome notifications dropped on the bounded outbox.
    pub outbox_dropped: u64,
    /// Degradation-ladder rung that produced the placement (0 = primary).
    pub fallback: u8,
    /// Journal size after the commit.
    pub wal_bytes: u64,
    /// True when the commit was skipped because the journal was stalled:
    /// nothing drained, nothing placed, tokens not refilled.
    pub stalled: bool,
}

/// What [`PlacementDaemon::recover`] found in the log.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryReport {
    /// The log ended in a torn record (discarded).
    pub torn_tail: bool,
    /// Service journal records replayed.
    pub service_records: usize,
    /// An interrupted epoch was rolled forward to its commit.
    pub rolled_forward: Option<u64>,
    /// Occupied ledger slots after recovery.
    pub live: u64,
    /// Requests still queued after recovery.
    pub queued: u64,
}

#[derive(Clone, Debug, Default)]
struct Counters {
    arrivals: u64,
    accepted: u64,
    rejected_throttle: u64,
    rejected_queue: u64,
    rejected_wal: u64,
    shed_queue: u64,
    outbox_dropped: u64,
}

/// The long-running placement daemon. See the module docs for the request
/// path, the epoch driver, and the recovery protocol.
#[derive(Clone, Debug)]
pub struct PlacementDaemon {
    cfg: ServiceConfig,
    tree: DcTree,
    wal: Wal,
    wal_fault: Option<WriteFault>,
    next_seq: u64,
    bucket: TokenBucket,
    queue: AdmissionQueue,
    slots: Vec<Option<Tenant>>,
    runtime: ContainerRuntime,
    intended: Placement,
    last_committed: Option<u64>,
    outbox: Vec<Response>,
    counters: Counters,
    dedup: DedupWindow,
    /// The degradation ladder over `cfg.gold` (volatile: a recovered daemon
    /// rebuilds it cold, which changes no placement).
    ladder: Ladder<Goldilocks>,
    /// Journal offset of the latest complete snapshot pair not yet
    /// compacted away, set once both records are durable (volatile: a
    /// recovered daemon compacts from the next pair it writes).
    snapshot_at: Option<usize>,
    /// The [`Session`] behind [`PlacementDaemon::handle_frames`]: a frame
    /// split across two calls is carried over, not reported torn. Last, so
    /// the request path's fields keep their offsets: placed among them it
    /// measured ~10 % slower on the wire-16 benchmark workload.
    session: Session,
}

impl PlacementDaemon {
    /// A fresh daemon over an empty journal.
    pub fn new(cfg: ServiceConfig, tree: DcTree) -> Self {
        let mut cfg = cfg;
        cfg.epoch_ticks = cfg.epoch_ticks.max(1);
        cfg.snapshot_every = cfg.snapshot_every.max(1);
        PlacementDaemon {
            bucket: TokenBucket::new(cfg.bucket_capacity),
            queue: AdmissionQueue::new(cfg.queue_capacity),
            dedup: DedupWindow::new(cfg.dedup_window, cfg.dedup_clients_max),
            session: Session::new(),
            ladder: Ladder::goldilocks(&cfg.gold),
            cfg,
            tree,
            wal: Wal::new(),
            wal_fault: None,
            next_seq: 0,
            slots: Vec::new(),
            runtime: ContainerRuntime::new(),
            intended: Placement { assignment: vec![] },
            last_committed: None,
            outbox: Vec::new(),
            counters: Counters::default(),
            snapshot_at: None,
        }
    }

    /// Injects (or clears) a write fault on the journal — the chaos hook
    /// for WAL stalls and short writes.
    pub fn set_wal_fault(&mut self, fault: Option<WriteFault>) {
        self.wal_fault = fault;
    }

    /// The raw journal bytes (the durable medium a crash-restart hands to
    /// [`PlacementDaemon::recover`]).
    pub fn wal_bytes(&self) -> &[u8] {
        self.wal.bytes()
    }

    /// The daemon's (clamped) service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Tokens left in the admission bucket.
    pub fn tokens(&self) -> u64 {
        self.bucket.tokens()
    }

    /// Occupied ledger slots.
    pub fn live(&self) -> u64 {
        self.slots.iter().filter(|s| s.is_some()).count() as u64
    }

    /// Last committed epoch, if any.
    pub fn last_committed(&self) -> Option<u64> {
        self.last_committed
    }

    /// The committed intended placement (slot-indexed).
    pub fn intended(&self) -> &Placement {
        &self.intended
    }

    /// The actual slot→server assignment from the container runtime — the
    /// byte-identity target of the recovery drill.
    pub fn assignment(&self) -> Vec<Option<ServerId>> {
        let mut out = vec![None; self.slots.len()];
        for (slot, server) in self.runtime.entries() {
            if slot >= out.len() {
                out.resize(slot + 1, None);
            }
            if let Some(cell) = out.get_mut(slot) {
                *cell = Some(server);
            }
        }
        out
    }

    /// Compacts the journal: drops every byte before the latest complete
    /// snapshot pair (the cluster `Snapshot` plus the service snapshot that
    /// every `snapshot_every`-th commit writes), returning how many bytes
    /// were dropped — 0 when no pair was written since the last compaction.
    ///
    /// The pair holds all the state recovery needs, so the compacted
    /// journal recovers to the same daemon as the whole log did, and a
    /// served journal stays within one pair plus `snapshot_every` commits
    /// of records. The serving loop calls this after each commit;
    /// [`PlacementDaemon::commit_epoch`] never does, so an in-process
    /// embedder keeps the whole log.
    pub fn compact_journal(&mut self) -> usize {
        self.snapshot_at
            .take()
            .map_or(0, |at| self.wal.drop_prefix(at))
    }

    /// Drains every pending async outcome notification.
    pub fn drain_outbox(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.outbox)
    }

    fn push_outcome(&mut self, resp: Response) {
        if self.outbox.len() < self.cfg.outbox_capacity {
            self.outbox.push(resp);
        } else {
            // Bounded outbox: a slow consumer loses notifications (counted),
            // never memory. Clients re-learn state via Query.
            self.counters.outbox_dropped += 1;
        }
    }

    fn retry_after(&self, now: u64) -> u64 {
        let t = self.cfg.epoch_ticks;
        t - (now % t)
    }

    /// The queue entry for a request accepted as `seq` at tick `at_tick`,
    /// with its deadline resolved against the default budget.
    fn queue_entry(&self, seq: u64, at_tick: u64, request: Request) -> QueueEntry {
        let budget = match request.deadline_ticks() {
            0 => self.cfg.default_deadline_ticks,
            d => d,
        };
        QueueEntry {
            seq,
            priority: request.priority(),
            at_tick,
            deadline: Deadline::NEVER.child(at_tick, budget),
            request,
        }
    }

    fn find_slot(&self, seq: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|t| t.as_ref().is_some_and(|t| t.seq == seq))
    }

    fn alloc_slot(&mut self) -> usize {
        match self.slots.iter().position(Option::is_none) {
            Some(i) => i,
            None => {
                self.slots.push(None);
                self.slots.len() - 1
            }
        }
    }

    /// Handles one request at virtual tick `now`.
    ///
    /// Mutations walk the three admission gates; the response is
    /// synchronous and truthful (an `Accepted` is durably journaled). This
    /// in-process path is anonymous — no idempotency tracking; transport
    /// clients go through [`PlacementDaemon::submit_envelope`].
    pub fn submit(&mut self, now: u64, req: Request) -> Response {
        self.submit_tracked(now, 0, 0, req)
    }

    /// Handles one enveloped request at virtual tick `now`, with idempotent
    /// retry semantics.
    ///
    /// If the `(client, request_id)` pair is in the dedup window, the
    /// recorded outcome is replayed — no second journal record, no second
    /// placement — which is what makes a retry after a lost `Accepted`
    /// safe. Queries always pass through (they are read-only and cheap).
    pub fn submit_envelope(&mut self, now: u64, env: Envelope) -> Response {
        if env.client != 0 && !matches!(env.request, Request::Query { .. }) {
            if let Some(hit) = self.dedup.lookup(env.client, env.request_id) {
                let tag = env.request.tag();
                return match hit {
                    DedupOutcome::Accepted { seq } => Response::Accepted { seq, tag },
                    DedupOutcome::Shed { seq } => Response::Shed { seq, tag },
                    DedupOutcome::Expired { seq } => Response::Expired { seq, tag },
                };
            }
        }
        self.submit_tracked(now, env.client, env.request_id, env.request)
    }

    fn submit_tracked(&mut self, now: u64, client: u64, request_id: u64, req: Request) -> Response {
        let tag = req.tag();
        if let Request::Query { target_seq, .. } = req {
            return self.answer_query(target_seq, tag);
        }
        self.counters.arrivals += 1;

        // Gate 1: token bucket.
        if !self.bucket.try_take() {
            self.counters.rejected_throttle += 1;
            return Response::Rejected {
                reason: proto::RejectReason::Throttled,
                retry_after_ticks: self.retry_after(now),
                tag,
            };
        }
        // Gate 2: bounded queue (planned, not yet applied).
        let plan = self.queue.plan(req.priority());
        if plan == PushPlan::Reject {
            self.bucket.refund();
            self.counters.rejected_queue += 1;
            return Response::Rejected {
                reason: proto::RejectReason::QueueFull,
                retry_after_ticks: self.retry_after(now),
                tag,
            };
        }
        // Gate 3: journal before ack.
        let seq = self.next_seq;
        let rec = SvcRecord::Accepted {
            seq,
            at_tick: now,
            client,
            request_id,
            request: req.clone(),
        };
        if self
            .wal
            .append_with_fault(&WalEvent::Service(rec.encode()), self.wal_fault)
            .is_err()
        {
            // Roll the torn tail back so the journal stays append-clean,
            // refund the token, and report explicit backpressure.
            self.wal.truncate_torn_tail();
            self.bucket.refund();
            self.counters.rejected_wal += 1;
            return Response::Rejected {
                reason: proto::RejectReason::WalUnavailable,
                retry_after_ticks: self.cfg.epoch_ticks,
                tag,
            };
        }
        self.next_seq += 1;
        self.counters.accepted += 1;
        self.dedup.record_accept(client, request_id, seq);
        let entry = self.queue_entry(seq, now, req);
        if let PushPlan::Evict(victim_seq) = plan {
            if let Some(victim) = self.queue.remove_seq(victim_seq) {
                self.counters.shed_queue += 1;
                self.dedup.mark_shed(victim.seq);
                self.push_outcome(Response::Shed {
                    seq: victim.seq,
                    tag: victim.request.tag(),
                });
            }
        }
        // Capacity was planned above; this cannot evict again.
        let _ = self.queue.push(entry);
        Response::Accepted { seq, tag }
    }

    fn answer_query(&self, target_seq: u64, tag: u64) -> Response {
        if self.queue.contains(target_seq) {
            return Response::Queued {
                seq: target_seq,
                tag,
            };
        }
        match self.find_slot(target_seq) {
            Some(slot) => match self.runtime.host_of(slot) {
                Some(server) => Response::Placed {
                    seq: target_seq,
                    server: server.0 as u64,
                    tag,
                },
                None => Response::Queued {
                    seq: target_seq,
                    tag,
                },
            },
            None => Response::NotFound {
                seq: target_seq,
                tag,
            },
        }
    }

    /// Feeds raw stream bytes (any chunking — a frame split across reads is
    /// reassembled, not reported torn) through the daemon's [`Session`],
    /// submitting each complete [`Envelope`], and returns the framed
    /// [`Reply`](proto::Reply)s plus whether the stream is corrupt
    /// (checksum failure / hostile length — the caller must drop the
    /// connection; partial frames are simply carried over to the next
    /// call).
    pub fn handle_frames(&mut self, now: u64, bytes: &[u8]) -> (Vec<u8>, bool) {
        let mut session = std::mem::take(&mut self.session);
        let corrupt = session
            .feed(bytes, |env| self.submit_envelope(now, env))
            .is_err();
        let out = std::mem::take(session.outbound());
        self.session = session;
        (out, corrupt)
    }

    /// Total durable sequence numbers ever issued (each names exactly one
    /// accepted mutation — the zero-duplicate invariant of the transport
    /// drills checks client-observed seqs against this).
    pub fn seqs_issued(&self) -> u64 {
        self.next_seq
    }

    /// Entries currently remembered by the idempotency dedup window.
    pub fn dedup_entries(&self) -> usize {
        self.dedup.len()
    }

    fn append(&mut self, ev: &WalEvent) -> Result<(), ServiceError> {
        if self.wal.append_with_fault(ev, self.wal_fault).is_err() {
            self.wal.truncate_torn_tail();
            return Err(ServiceError::Wal);
        }
        Ok(())
    }

    /// Applies one drained batch entry to the tenant ledger, pushing the
    /// outcome. Returns the admits `(slot, seq, tag)` for post-placement
    /// `Placed` notifications.
    fn apply_entry(
        &mut self,
        entry: &QueueEntry,
        commit_tick: u64,
        rec: &mut ServiceEpochRecord,
    ) -> Option<(usize, u64, u64)> {
        if entry.deadline.expired(commit_tick) {
            rec.expired += 1;
            self.dedup.mark_expired(entry.seq);
            self.push_outcome(Response::Expired {
                seq: entry.seq,
                tag: entry.request.tag(),
            });
            return None;
        }
        match &entry.request {
            Request::Admit {
                priority,
                demand,
                tag,
                ..
            } => {
                let slot = self.alloc_slot();
                if let Some(cell) = self.slots.get_mut(slot) {
                    *cell = Some(Tenant {
                        seq: entry.seq,
                        priority: *priority,
                        demand: *demand,
                        tag: *tag,
                    });
                }
                Some((slot, entry.seq, *tag))
            }
            Request::Resize {
                target_seq,
                demand,
                tag,
                ..
            } => {
                match self.find_slot(*target_seq) {
                    Some(slot) => {
                        if let Some(Some(t)) = self.slots.get_mut(slot) {
                            t.demand = *demand;
                        }
                        rec.resized += 1;
                        self.push_outcome(Response::Resized {
                            seq: entry.seq,
                            tag: *tag,
                        });
                    }
                    None => {
                        rec.not_found += 1;
                        self.push_outcome(Response::NotFound {
                            seq: entry.seq,
                            tag: *tag,
                        });
                    }
                }
                None
            }
            Request::Remove {
                target_seq, tag, ..
            } => {
                match self.find_slot(*target_seq) {
                    Some(slot) => {
                        if let Some(cell) = self.slots.get_mut(slot) {
                            *cell = None;
                        }
                        rec.removed += 1;
                        self.push_outcome(Response::Removed {
                            seq: entry.seq,
                            tag: *tag,
                        });
                    }
                    None => {
                        rec.not_found += 1;
                        self.push_outcome(Response::NotFound {
                            seq: entry.seq,
                            tag: *tag,
                        });
                    }
                }
                None
            }
            Request::Query { .. } => None,
        }
    }

    /// Builds the planning workload over occupied slots in shed order
    /// (priority desc, seq asc — the ladder sheds from the tail, i.e. the
    /// lowest-priority, youngest tenants first). Returns the workload and
    /// the workload-index → slot map.
    fn planning_workload(&self) -> (Workload, Vec<usize>) {
        let mut occupied: Vec<(usize, &Tenant)> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (i, t)))
            .collect();
        occupied.sort_by_key(|(_, t)| (u64::from(u8::MAX - t.priority), t.seq));
        let mut w = Workload::new();
        let mut index_map = Vec::with_capacity(occupied.len());
        for (slot, t) in occupied {
            w.add_container("tenant", t.demand, None);
            index_map.push(slot);
        }
        (w, index_map)
    }

    /// Commits epoch `epoch`: drain → expire → apply → plan → reconcile →
    /// journal. Returns the epoch's serving metrics.
    ///
    /// A journal stall at the *start* of the commit skips the epoch
    /// gracefully (nothing drained, tokens not refilled, placement
    /// unchanged — `stalled` is set on the record). A stall *mid-commit*
    /// returns [`ServiceError::Wal`]: volatile state may be ahead of the
    /// journal and the embedder must crash-restart from the log.
    pub fn commit_epoch(&mut self, epoch: u64) -> Result<ServiceEpochRecord, ServiceError> {
        let mut rec = self.base_record(epoch);
        let batch_seqs = self.queue.peek_batch(self.cfg.batch_max);
        // Probe append: the batch drain becomes durable before anything
        // moves. If the journal is stalled, the whole epoch politely waits.
        if self
            .wal
            .append_with_fault(
                &WalEvent::Service(
                    SvcRecord::Batch {
                        epoch,
                        seqs: batch_seqs.clone(),
                    }
                    .encode(),
                ),
                self.wal_fault,
            )
            .is_err()
        {
            self.wal.truncate_torn_tail();
            rec.stalled = true;
            rec.live = self.live();
            rec.queue_depth_end = self.queue.len() as u64;
            rec.outbox_dropped = self.counters.outbox_dropped;
            rec.wal_bytes = self.wal.len_bytes() as u64;
            self.reset_epoch_trackers();
            return Ok(rec);
        }
        self.append(&WalEvent::EpochBegin {
            epoch,
            rng_state: 0,
        })?;
        let batch = self.queue.remove_seqs(&batch_seqs);
        let commit_tick = epoch_commit_tick(epoch, self.cfg.epoch_ticks);
        let mut placed_pending = Vec::new();
        for entry in &batch {
            if let Some(p) = self.apply_entry(entry, commit_tick, &mut rec) {
                placed_pending.push(p);
            }
        }
        self.decide_and_execute(epoch, &mut rec, &placed_pending)?;
        Ok(rec)
    }

    fn base_record(&self, epoch: u64) -> ServiceEpochRecord {
        ServiceEpochRecord {
            epoch,
            arrivals: self.counters.arrivals,
            accepted: self.counters.accepted,
            rejected_throttle: self.counters.rejected_throttle,
            rejected_queue: self.counters.rejected_queue,
            rejected_wal: self.counters.rejected_wal,
            shed_queue: self.counters.shed_queue,
            queue_depth_max: self.queue.depth_high_water() as u64,
            ..ServiceEpochRecord::default()
        }
    }

    fn reset_epoch_trackers(&mut self) {
        self.counters = Counters::default();
        self.queue.reset_high_water();
    }

    /// The plan → shed → reconcile → commit half of an epoch, shared by the
    /// live path and crash roll-forward. `decision` carries a logged
    /// decision when recovery already knows it.
    fn decide_and_execute(
        &mut self,
        epoch: u64,
        rec: &mut ServiceEpochRecord,
        placed_pending: &[(usize, u64, u64)],
    ) -> Result<(), ServiceError> {
        let (slot_placement, rung, shed) = self.plan_placement();
        self.append(&WalEvent::Decision {
            epoch,
            fallback: rung,
            shed: shed as u64,
            intended: slot_placement.clone(),
        })?;
        self.finish_epoch(epoch, slot_placement, rung, rec, placed_pending)
    }

    /// Runs the degradation ladder over the current ledger and maps the
    /// result back to slot indexing.
    fn plan_placement(&mut self) -> (Placement, u8, usize) {
        let (w, index_map) = self.planning_workload();
        if w.is_empty() {
            return (
                Placement {
                    assignment: vec![None; self.slots.len()],
                },
                0,
                0,
            );
        }
        let (p, rung, shed) = self.ladder.place(&w, &self.tree);
        let mut assignment = vec![None; self.slots.len()];
        for (i, slot) in index_map.iter().enumerate() {
            if let (Some(a), Some(cell)) = (p.assignment.get(i), assignment.get_mut(*slot)) {
                *cell = *a;
            }
        }
        (Placement { assignment }, rung.code(), shed)
    }

    /// Applies a decided placement: evict planner-shed tenants, journal and
    /// execute the reconciling transitions, commit, refill, snapshot.
    fn finish_epoch(
        &mut self,
        epoch: u64,
        slot_placement: Placement,
        rung: u8,
        rec: &mut ServiceEpochRecord,
        placed_pending: &[(usize, u64, u64)],
    ) -> Result<(), ServiceError> {
        let shed_planner = self.shed_unplaced(&slot_placement);
        // Reconcile and execute, one journaled unit per transition.
        let transitions = self.runtime.reconcile(&slot_placement);
        for t in transitions {
            self.append(&WalEvent::Unit {
                container: t.container() as u64,
                disposition: Disposition::Applied,
                rng_state: 0,
                transitions: vec![t],
            })?;
            self.runtime
                .apply(t)
                .map_err(|e| ServiceError::Recovery(format!("illegal transition: {e}")))?;
        }
        self.append(&WalEvent::EpochCommit {
            epoch,
            rng_state: 0,
            gate: vec![],
        })?;
        self.intended = slot_placement;
        self.last_committed = Some(epoch);

        // Placed notifications for this epoch's surviving admits.
        let mut placed = 0u64;
        for &(slot, seq, tag) in placed_pending {
            if let Some(server) = self.runtime.host_of(slot) {
                placed += 1;
                self.push_outcome(Response::Placed {
                    seq,
                    server: server.0 as u64,
                    tag,
                });
            }
        }

        // Refill *before* the snapshot so a snapshot-anchored replay sees
        // the post-refill level.
        self.bucket.refill(self.cfg.tokens_per_epoch);
        if epoch
            .wrapping_add(1)
            .is_multiple_of(self.cfg.snapshot_every)
        {
            self.append_snapshot_pair()?;
        }

        rec.shed_planner = shed_planner;
        rec.placed = placed;
        rec.live = self.live();
        rec.queue_depth_end = self.queue.len() as u64;
        rec.fallback = rung;
        rec.outbox_dropped = self.counters.outbox_dropped;
        rec.wal_bytes = self.wal.len_bytes() as u64;
        self.reset_epoch_trackers();
        Ok(())
    }

    /// Planner sheds: evicts from the ledger, with an explicit `Shed`, every
    /// occupied slot `decided` leaves unplaced, and returns how many. Replay
    /// re-derives this from the logged `Decision`, so it has no journal
    /// record of its own.
    fn shed_unplaced(&mut self, decided: &Placement) -> u64 {
        let mut shed = 0u64;
        for slot in 0..self.slots.len() {
            if decided.assignment.get(slot).is_some_and(Option::is_some) {
                continue;
            }
            if let Some(t) = self.slots.get_mut(slot).and_then(Option::take) {
                self.dedup.mark_shed(t.seq);
                self.push_outcome(Response::Shed {
                    seq: t.seq,
                    tag: t.tag,
                });
                shed += 1;
            }
        }
        shed
    }

    /// Journals the cluster and service snapshots, then records where the
    /// pair starts for [`PlacementDaemon::compact_journal`].
    fn append_snapshot_pair(&mut self) -> Result<(), ServiceError> {
        let at = self.wal.len_bytes();
        self.append_cluster_snapshot()?;
        self.append_service_snapshot()?;
        self.snapshot_at = Some(at);
        Ok(())
    }

    fn append_cluster_snapshot(&mut self) -> Result<(), ServiceError> {
        self.append(&WalEvent::Snapshot(ClusterState::capture(
            self.last_committed,
            &self.intended,
            &self.runtime,
            None,
            None,
        )))
    }

    fn append_service_snapshot(&mut self) -> Result<(), ServiceError> {
        let snap = SvcRecord::Snapshot {
            next_seq: self.next_seq,
            tokens: self.bucket.tokens(),
            slots: self.slots.clone(),
            queue: self
                .queue
                .entries()
                .iter()
                .map(|e| (e.seq, e.at_tick, e.request.clone()))
                .collect(),
            dedup: self.dedup.export(),
        };
        self.append(&WalEvent::Service(snap.encode()))
    }

    /// Rebuilds a daemon from raw WAL bytes. See the module docs for the
    /// replay protocol; an interrupted epoch is rolled forward to its
    /// commit before this returns, so the recovered daemon is always at a
    /// clean epoch boundary.
    pub fn recover(
        cfg: ServiceConfig,
        tree: DcTree,
        wal_bytes: &[u8],
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let rec = cluster_recover(wal_bytes)?;
        // Only a compacted journal starts with a cluster snapshot, and
        // compaction keeps the whole pair: the service half must follow.
        if matches!(rec.events.first(), Some(WalEvent::Snapshot(_)))
            && !matches!(rec.events.get(1), Some(WalEvent::Service(_)))
        {
            return Err(ServiceError::Recovery(
                "compacted journal lacks the service half of its snapshot pair".into(),
            ));
        }
        let mut d = PlacementDaemon::new(cfg, tree);

        // Adopt the intact prefix as the journal (drops any torn tail).
        d.wal = Wal::from_bytes(wal_bytes[..rec.intact_bytes].to_vec());
        d.runtime = rec.runtime();
        d.intended = rec.state.intended.clone();
        d.last_committed = rec.state.committed_epoch;

        // Deterministic service replay over the full event stream. The
        // `needs_*_snap` flags detect a crash that landed *between* an
        // epoch commit and its due snapshot records, so recovery can
        // re-append them and keep the journal byte-identical with an
        // uninterrupted run.
        let mut open_batch: Option<u64> = None;
        let mut open_placed: Vec<(usize, u64, u64)> = Vec::new();
        let mut service_records = 0usize;
        let mut scratch = ServiceEpochRecord::default();
        let mut needs_cluster_snap = false;
        let mut needs_svc_snap = false;
        for ev in &rec.events {
            match ev {
                WalEvent::Service(payload) => {
                    service_records += 1;
                    match SvcRecord::decode(payload)
                        .map_err(|e| ServiceError::Recovery(format!("bad service record: {e}")))?
                    {
                        SvcRecord::Accepted {
                            seq,
                            at_tick,
                            client,
                            request_id,
                            request,
                        } => {
                            needs_cluster_snap = false;
                            needs_svc_snap = false;
                            d.next_seq = d.next_seq.max(seq + 1);
                            if !d.bucket.try_take() {
                                return Err(ServiceError::Recovery(format!(
                                    "accept {seq} with an empty replayed bucket"
                                )));
                            }
                            d.dedup.record_accept(client, request_id, seq);
                            let entry = d.queue_entry(seq, at_tick, request);
                            // Evictions replay deterministically (rejects
                            // were never journaled), mirroring the live
                            // path's queue-shed dedup transition.
                            if let PushOutcome::Evicted(victim) = d.queue.push(entry) {
                                d.dedup.mark_shed(victim.seq);
                            }
                        }
                        SvcRecord::Batch { epoch, seqs } => {
                            needs_cluster_snap = false;
                            needs_svc_snap = false;
                            let entries = d.queue.remove_seqs(&seqs);
                            if entries.len() != seqs.len() {
                                return Err(ServiceError::Recovery(format!(
                                    "batch for epoch {epoch} references unknown seqs"
                                )));
                            }
                            let commit_tick = epoch_commit_tick(epoch, d.cfg.epoch_ticks);
                            open_placed.clear();
                            for entry in &entries {
                                if let Some(p) = d.apply_entry(entry, commit_tick, &mut scratch) {
                                    open_placed.push(p);
                                }
                            }
                            open_batch = Some(epoch);
                        }
                        SvcRecord::Snapshot {
                            next_seq,
                            tokens,
                            slots,
                            queue,
                            dedup,
                        } => {
                            needs_svc_snap = false;
                            d.next_seq = next_seq;
                            d.bucket.set_tokens(tokens);
                            d.slots = slots;
                            d.dedup = DedupWindow::restore(
                                d.cfg.dedup_window,
                                d.cfg.dedup_clients_max,
                                &dedup,
                            );
                            d.queue = AdmissionQueue::new(d.cfg.queue_capacity);
                            for (seq, at_tick, request) in queue {
                                let _ = d.queue.push(d.queue_entry(seq, at_tick, request));
                            }
                        }
                    }
                }
                WalEvent::Decision { intended, .. } => {
                    d.shed_unplaced(intended);
                }
                WalEvent::EpochCommit { epoch, .. } => {
                    d.bucket.refill(d.cfg.tokens_per_epoch);
                    open_batch = None;
                    open_placed.clear();
                    let due = epoch.wrapping_add(1).is_multiple_of(d.cfg.snapshot_every);
                    needs_cluster_snap = due;
                    needs_svc_snap = due;
                }
                WalEvent::Snapshot(_) => {
                    needs_cluster_snap = false;
                }
                WalEvent::EpochBegin { .. } => {
                    needs_cluster_snap = false;
                    needs_svc_snap = false;
                }
                WalEvent::Unit { .. } => {}
            }
        }
        // Drop volatile outbox/counter effects accumulated during replay
        // (the shared transitions push outcomes) — a restarted daemon
        // notifies nothing it already acked.
        d.outbox.clear();
        d.counters = Counters::default();
        d.queue.reset_high_water();

        // Roll an interrupted epoch forward to its commit, or re-append
        // snapshot records a crash separated from their commit — either way
        // the journal converges to the uninterrupted run's bytes.
        let mut rolled_forward = None;
        if let Some(epoch) = open_batch {
            let mut rec2 = d.base_record(epoch);
            rolled_forward = Some(epoch);
            match rec.open.as_ref().and_then(|o| o.intended.clone()) {
                Some(intended) => {
                    // Decision already journaled: execute the remainder.
                    let rung = rec.open.as_ref().map_or(0, |o| o.fallback);
                    d.finish_epoch(epoch, intended, rung, &mut rec2, &open_placed)?;
                }
                None => {
                    // Crashed before the decision. If EpochBegin is also
                    // missing (crash right after the batch record), journal
                    // it now, then re-plan deterministically.
                    if rec.open.is_none() {
                        d.append(&WalEvent::EpochBegin {
                            epoch,
                            rng_state: 0,
                        })?;
                    }
                    d.decide_and_execute(epoch, &mut rec2, &open_placed)?;
                }
            }
        } else if needs_cluster_snap {
            d.append_snapshot_pair()?;
        } else if needs_svc_snap {
            d.append_service_snapshot()?;
        }

        let report = RecoveryReport {
            torn_tail: rec.torn_tail,
            service_records,
            rolled_forward,
            live: d.live(),
            queued: d.queue.len() as u64,
        };
        Ok((d, report))
    }
}
