//! # goldilocks-core
//!
//! The paper's primary contribution: the Goldilocks resource-provisioning
//! algorithm (ICDCS 2019).
//!
//! - [`Goldilocks`]: symmetric-topology placement (Section III) —
//!   recursive min-cut bisection of the container graph until every group
//!   fits one server at the Peak-Energy-Efficiency cap, then left-to-right
//!   assignment onto the topology so sibling groups share racks/pods.
//! - [`GoldilocksAsym`]: asymmetric topologies and heterogeneous servers
//!   (Section IV) — groups become Oktopus-style Virtual Clusters placed on
//!   the smallest left-most subtree with enough residual outbound bandwidth
//!   (Eq. 4/5), splitting into components when necessary.
//! - [`Ladder`]: the degradation ladder every caller walks when the
//!   primary caps cannot host an epoch (relaxed caps, E-PVM spill, shed).
//! - [`capacity_graph`]: the Section III-A capacity graph.
//! - Replica anti-affinity (Section IV-C) rides on negative container-graph
//!   edges, configured via [`GoldilocksConfig::anti_affinity_weight`].
//!
//! ## Example
//!
//! ```
//! use goldilocks_core::Goldilocks;
//! use goldilocks_placement::Placer;
//! use goldilocks_topology::builders::testbed_16;
//! use goldilocks_workload::generators::twitter_caching;
//!
//! let tree = testbed_16();
//! let workload = twitter_caching(64, 1);
//! let placement = Goldilocks::new().place(&workload, &tree)?;
//! // Every server's CPU stays at or below the 70 % PEE target.
//! assert!(placement
//!     .server_cpu_utilizations(&workload, &tree)
//!     .iter()
//!     .all(|u| *u <= 0.70 + 1e-9));
//! # Ok::<(), goldilocks_placement::PlaceError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

mod capacity;
mod config;
mod goldilocks;
mod grouping;
mod incremental_placer;
mod ladder;
mod vcluster;

pub use capacity::capacity_graph;
pub use config::{GoldilocksConfig, ServiceConfig};
pub use goldilocks::{Goldilocks, ProvisionDetails};
pub use grouping::partition_into_groups;
pub use incremental_placer::IncrementalGoldilocks;
pub use ladder::{rung_configs, Ladder, Rung};
pub use vcluster::GoldilocksAsym;
