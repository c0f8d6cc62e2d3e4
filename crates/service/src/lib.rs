//! Placement-as-a-service: a long-running daemon wrapping the Goldilocks
//! placement stack behind an admission-controlled, journaled request path.
//!
//! The crate is the serving layer of the reproduction. Clients speak a
//! length-prefixed framed protocol ([`proto`]): admit a tenant, resize or
//! remove one, or query where it landed. The daemon ([`daemon`]) batches
//! accepted requests into placement epochs, journals every accept through
//! the cluster WAL *before* acknowledging it, and drives the shared
//! epoch-commit machinery — so a crash at any request boundary recovers to
//! a byte-identical journal and placement.
//!
//! Robustness is the design center, in three layers:
//!
//! - **Admission control** ([`queue`]): an integer token bucket caps the
//!   sustained intake rate and a bounded priority queue absorbs bursts.
//!   Overload is never silent — arrivals are rejected with a retry-after
//!   hint, or displace a lower-priority request that gets an explicit
//!   `Shed` notice.
//! - **Deadlines** ([`deadline`]): all timeouts are saturating arithmetic
//!   over virtual ticks, propagated monotonically (a derived deadline can
//!   only tighten), and enforced at epoch commit.
//! - **Graceful degradation**: when the primary Goldilocks placement is
//!   infeasible the daemon walks [`goldilocks_core::Ladder`] down to
//!   load-shedding — the same ladder as the epoch loop and chaos driver.
//! - **Idempotent retries** ([`dedup`]): requests carry client-assigned
//!   ids and the daemon keeps a WAL-riding dedup window, so a client that
//!   lost the reply (but not the accept) can retry safely — even across a
//!   daemon crash-restart — without double-placing.
//!
//! The serving edge is the transport layer ([`transport`]): a blocking
//! TCP server ([`server`]) with connection caps, idle deadlines, bounded
//! write buffers, and kill-safe drain; a reconnecting client
//! ([`client`]) with seeded backoff and idempotent retry; and a
//! deterministic in-memory fabric ([`simnet`]) that drives the same
//! client logic through seeded socket faults.
//!
//! Everything below the socket edge is deterministic — no wall clocks, no
//! ambient randomness — which is what makes the crash-restart soak drill
//! exact instead of statistical. Even the TCP path never reads a clock:
//! timeouts are counted in OS-enforced poll intervals.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod deadline;
pub mod dedup;
mod journal;
pub mod proto;
pub mod queue;
pub mod server;
pub mod simnet;
pub mod transport;

pub use client::{
    ClientConfig, ClientError, ClientStats, QueryStatus, ServiceClient, TcpConn, TcpTransport,
};
pub use daemon::{PlacementDaemon, RecoveryReport, ServiceEpochRecord, ServiceError, Tenant};
pub use deadline::{epoch_commit_tick, Deadline};
pub use dedup::{DedupExport, DedupOutcome, DedupWindow};
pub use proto::{
    deframe, frame, Envelope, FrameAssembler, Priority, ProtoError, RejectReason, Reply, Request,
    Response, Session, MAX_FRAME_BYTES,
};
pub use queue::{AdmissionQueue, PushOutcome, PushPlan, QueueEntry, TokenBucket};
pub use server::{ServerConfig, ServerHandle, ServerStats, TcpServer};
pub use simnet::{SimConn, SimFaultConfig, SimNet, SimStats, SimTransport};
pub use transport::{Conn, Transport, TransportError};
