//! # goldilocks-cluster
//!
//! Testbed-emulation mechanisms for the Goldilocks reproduction
//! (ICDCS 2019, Section V). The paper ran a 16-server Docker testbed with
//! seamless container migration; we have no hardware, so this crate models
//! the same control machinery:
//!
//! - [`MigrationModel`] / [`migration_plan`]: the CRIU checkpoint/restore +
//!   rsync pipeline — epoch-to-epoch placement diffs priced in freeze
//!   seconds and megabytes moved.
//! - [`ContainerRuntime`] / [`Transition`]: the container lifecycle table
//!   and the stop/migrate/start command stream that reconciles one epoch's
//!   placement with the next — what the paper's migration controller sends.
//! - [`execute_migrations`]: fault-aware execution of a migration batch —
//!   per-attempt failures, bounded retry with exponential backoff,
//!   rollback to the source, and cold restarts off failed servers.
//! - [`PowerGate`]: IPMI-style on/off state machines with boot delays.
//!
//! PR 2 adds the crash-recoverable control plane:
//!
//! - [`Wal`] / [`WalEvent`]: a length-prefixed, CRC-32-checksummed
//!   write-ahead log of every epoch decision, migration unit, and commit,
//!   with periodic [`ClusterState`] snapshots. Its codec — the
//!   [`Enc`]/[`Dec`] cursor, one frame writer (which encodes a WAL record
//!   in place behind its header; [`frame_into`] appends a ready payload
//!   and [`frame`] returns the frame in a fresh buffer) and the frame
//!   scanner [`decode_frame`] — is also the serving layer's wire and
//!   journal codec.
//! - [`recover`]: snapshot + replayed-suffix state reconstruction,
//!   tolerating a torn final record and surfacing any in-flight
//!   [`OpenEpoch`].
//! - [`anti_entropy`]: the bounded intended-vs-actual reconciler that
//!   repairs drift accumulated while the controller was dead.
//! - [`ClusterError`]: the unified error type all of the above compose
//!   through.
//!
//! The flow-level metrics and experiment drivers live in `goldilocks-sim`.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod error;
mod executor;
mod lifecycle;
mod migration;
mod powergate;
mod reconcile;
mod recovery;
mod snapshot;
mod wal;

pub use error::ClusterError;
pub use executor::{
    execute_migrations, execute_unit, Disposition, MigrationOutcome, MigrationStats, UnitOutcome,
};
pub use lifecycle::{ContainerRuntime, LifecycleError, Transition};
pub use migration::{migration_plan, Migration, MigrationCost, MigrationModel};
pub use powergate::{PowerGate, PowerState};
pub use reconcile::{anti_entropy, RepairPlan};
pub use recovery::{recover, OpenEpoch, Recovered};
pub use snapshot::ClusterState;
pub use wal::{
    crc32, decode_frame, frame, frame_into, Dec, DecodedLog, Enc, FrameScan, Wal, WalError,
    WalEvent, WalFull, WriteFault,
};
