//! # goldilocks
//!
//! A from-scratch Rust reproduction of **“Goldilocks: Adaptive Resource
//! Provisioning in Containerized Data Centers”** (Zhou, Bhuyan,
//! Ramakrishnan — ICDCS 2019).
//!
//! Goldilocks places containers on data-center servers by recursively
//! min-cut partitioning the *container graph* (vertex = ⟨CPU, memory,
//! network⟩ demand, edge = flow count) until every group fits one server at
//! the *Peak Energy Efficiency* utilization (~70 %), then maps sibling
//! groups onto neighboring racks. The result: the least total power **and**
//! the shortest task completion times of the five policies the paper
//! evaluates.
//!
//! This umbrella crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`partition`] | `goldilocks-partition` | multilevel min-cut graph partitioner (METIS substitute) |
//! | [`topology`] | `goldilocks-topology` | fat-tree / leaf-spine / testbed topologies, bandwidth ledger |
//! | [`power`] | `goldilocks-power` | PEE power curves, switch models, Table I / Figs. 1–3 math |
//! | [`workload`] | `goldilocks-workload` | Table II profiles, container graphs, Wikipedia/Azure/search traces |
//! | [`placement`] | `goldilocks-placement` | `Placer` trait + E-PVM, mPP, Borg, RC-Informed baselines |
//! | [`core`] | `goldilocks-core` | the Goldilocks algorithm (Sections III & IV) |
//! | [`cluster`] | `goldilocks-cluster` | CRIU migration model, power gating (overlay IPs are not modelled) |
//! | [`service`] | `goldilocks-service` | placement daemon: admission control, backpressure, WAL-backed serving |
//! | [`sim`] | `goldilocks-sim` | flow-level simulator, scenarios for Figs. 9/10/13 |
//!
//! ## Quickstart
//!
//! ```
//! use goldilocks::core::Goldilocks;
//! use goldilocks::placement::Placer;
//! use goldilocks::topology::builders::testbed_16;
//! use goldilocks::workload::generators::twitter_caching;
//!
//! let dc = testbed_16();                 // the paper's 16-server testbed
//! let workload = twitter_caching(64, 7); // front-ends + memcached shards
//! let placement = Goldilocks::new().place(&workload, &dc)?;
//! assert!(placement.is_complete());
//! # Ok::<(), goldilocks::placement::PlaceError>(())
//! ```
//!
//! Run `cargo run --release -p goldilocks-bench --bin fig09_wiki_testbed`
//! (and the other `fig*`/`tab*` binaries) to regenerate every table and
//! figure of the paper; see `EXPERIMENTS.md` for the index.

#![forbid(unsafe_code)]
#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub use goldilocks_cluster as cluster;
pub use goldilocks_core as core;
pub use goldilocks_partition as partition;
pub use goldilocks_placement as placement;
pub use goldilocks_power as power;
pub use goldilocks_service as service;
pub use goldilocks_sim as sim;
pub use goldilocks_topology as topology;
pub use goldilocks_workload as workload;
