//! One epoch step: `run_policy_with` is a fault-free `ChaosDriver` run, and
//! its records must equal the reference epoch loop (`support::reference_run`:
//! place, meter the plan, cost the plan diff) field for field, floats
//! compared by their bits. The cases cover every workload-shaping feature
//! (prefix churn, per-container traces, streamed multipliers), every
//! policy's ladder, sequential and sharded metering, and the infeasible
//! epoch that ends a run with an error.
//!
//! The reference meters the plan while the driver meters what the migration
//! executor materialized; the two agree only while every migration lands.
//! Under failing migrations the projection itself is checked instead,
//! against the driver's own records.

mod support;

use goldilocks_core::{GoldilocksConfig, Rung};
use goldilocks_placement::PlaceError;
use goldilocks_sim::chaos::{run_chaos, ChaosEpochRecord, FaultSchedule};
use goldilocks_sim::epoch::{
    run_policy_with, EpochRecord, Policy, PolicyRun, Scenario, CLIENT_CONCURRENCY,
};
use goldilocks_sim::scenarios::{azure_testbed, hyperscale, largescale, wiki_testbed};
use goldilocks_sim::ParallelConfig;

/// The lineup plus the two Goldilocks variants outside it.
fn policies() -> Vec<Policy> {
    let mut all = Policy::lineup();
    all.push(Policy::GoldilocksAsym(GoldilocksConfig::paper()));
    all.push(Policy::GoldilocksIncremental(
        GoldilocksConfig::paper(),
        0.5,
    ));
    all
}

/// Sequential metering, and four metering threads over chunks small enough
/// that every epoch spans many of them.
fn metering_configs() -> [ParallelConfig; 2] {
    [
        ParallelConfig::sequential(),
        ParallelConfig {
            metering_chunk_flows: 8,
            min_parallel_flows: 1,
            ..ParallelConfig::with_threads(4)
        },
    ]
}

/// Every field of a record, floats as their bits.
fn fields(r: &EpochRecord) -> [u64; 11] {
    [
        r.epoch as u64,
        r.active_servers as u64,
        r.server_watts.to_bits(),
        r.switch_watts.to_bits(),
        r.boot_watts.to_bits(),
        r.tct_ms.to_bits(),
        r.energy_per_request_j.to_bits(),
        r.migrations as u64,
        r.freeze_seconds.to_bits(),
        r.mean_cpu_util.to_bits(),
        u64::from(r.fallback),
    ]
}

fn assert_same_run(got: &PolicyRun, want: &PolicyRun, case: &str) {
    assert_eq!(got.policy, want.policy, "{case}");
    assert_eq!(got.records.len(), want.records.len(), "{case}");
    for (g, w) in got.records.iter().zip(&want.records) {
        assert_eq!(fields(g), fields(w), "{case} epoch {}", w.epoch);
    }
}

/// Both paths must return the same records, or the same error.
fn assert_matches_reference(s: &Scenario, policy: &Policy, parallel: &ParallelConfig) {
    let case = format!(
        "{} / {} / {} metering threads",
        s.name,
        policy.name(),
        parallel.threads
    );
    match (
        run_policy_with(s, policy, parallel),
        support::reference_run(s, policy, parallel),
    ) {
        (Ok(got), Ok(want)) => assert_same_run(&got, &want, &case),
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{case}"),
        (got, want) => panic!("{case}: driver {got:?}, reference {want:?}"),
    }
}

#[test]
fn driver_path_matches_the_reference_loop_bit_for_bit() {
    let scenarios = [
        wiki_testbed(5, 48, 7),
        // Prefix churn: the container count moves between 149 and 221.
        azure_testbed(5, 7),
        // Streamed per-container multipliers.
        hyperscale(4, 4, 3),
        largescale(8, 3, 42),
    ];
    for s in &scenarios {
        for policy in policies() {
            for parallel in &metering_configs() {
                assert_matches_reference(s, &policy, parallel);
            }
        }
    }
}

#[test]
fn infeasible_epoch_is_the_reference_error() {
    let mut s = wiki_testbed(3, 40, 5);
    s.base.containers[0].demand.cpu = 1.0e6;
    for policy in [Policy::EPvm, Policy::Goldilocks(GoldilocksConfig::paper())] {
        let got = run_policy_with(&s, &policy, &ParallelConfig::sequential());
        assert!(
            matches!(&got, Err(PlaceError::Infeasible { reason }) if reason.contains("shed")),
            "{}: {got:?}",
            policy.name()
        );
        assert_matches_reference(&s, &policy, &ParallelConfig::sequential());
    }
}

/// Under failing migrations the records meter what materialized: each one
/// is the projection of the driver's record for the same run (seed 0, the
/// roll stream `run_policy_with` uses).
#[test]
fn records_project_the_driver_under_failing_migrations() {
    let mut s = wiki_testbed(6, 48, 11);
    s.migration.failure_prob = 0.3;
    let policy = Policy::Goldilocks(GoldilocksConfig::paper());
    let got = run_policy_with(&s, &policy, &ParallelConfig::sequential()).unwrap();
    let chaos = run_chaos(&s, &policy, &FaultSchedule::empty(6), 0).unwrap();
    assert!(
        chaos
            .records
            .iter()
            .any(|r| r.migration.completed < r.migration.attempted),
        "the case must abandon some migration"
    );
    let want = |r: &ChaosEpochRecord| EpochRecord {
        epoch: r.epoch,
        active_servers: r.active_servers,
        server_watts: r.server_watts,
        switch_watts: r.switch_watts,
        boot_watts: r.boot_watts,
        tct_ms: r.tct_ms,
        energy_per_request_j: if s.epochs[r.epoch].rps > 0.0 {
            (r.server_watts + r.switch_watts) * (r.tct_ms / 1000.0) / CLIENT_CONCURRENCY
        } else {
            0.0
        },
        migrations: r.migration.attempted,
        freeze_seconds: r.migration.total_freeze_s,
        mean_cpu_util: r.mean_cpu_util,
        fallback: r.fallback != Rung::Primary,
    };
    assert_same_run(
        &got,
        &PolicyRun {
            policy: chaos.policy.clone(),
            records: chaos.records.iter().map(want).collect(),
        },
        "failing migrations",
    );
}
