//! Service soak bench: drives the placement daemon through a seeded
//! request trace and emits `results/BENCH_service.json` — the per-PR
//! serving-path record (placements/sec, p50/p99 admit latency, shed rate,
//! recovery time).
//!
//! Three phases:
//!
//! 1. **Soak** — a deliberately oversubscribed trace (more arrivals per
//!    epoch than the queue holds) drives the daemon for `--epochs` epochs,
//!    timing every `submit` call; backpressure shows up as explicit
//!    rejects and sheds, never as an unbounded queue.
//! 2. **Overload burst** — a 2× request storm against a full queue must
//!    keep accepting high-priority admits (evicting low-priority ones with
//!    explicit `Shed` outcomes) while the queue stays within its bound.
//! 3. **Crash drill** — the daemon is restarted from every WAL record
//!    boundary of a reference run (≥ 30 points); each recovered journal
//!    must be a byte-exact prefix of the uninterrupted one, and the
//!    recovery wall-clock is recorded.
//!
//! Usage: `service_soak [--epochs E]` (default 40).

use std::time::Instant;

use goldilocks_bench::runner::{arg_value, crash_drill, die, percentile_us, write_result};
use goldilocks_cluster::Wal;
use goldilocks_core::ServiceConfig;
use goldilocks_service::{PlacementDaemon, Priority, Request, Response};
use goldilocks_sim::chaos::{generate_trace, ServiceTraceConfig};
use goldilocks_sim::report::{fmt, render_table};
use goldilocks_topology::builders::fat_tree;
use goldilocks_topology::{DcTree, Resources};

struct SoakStats {
    arrivals: u64,
    accepted: u64,
    rejected: u64,
    sheds: u64,
    placed: u64,
    queue_depth_max: u64,
    admit_p50_us: f64,
    admit_p99_us: f64,
    placements_per_sec: f64,
    soak_wall_s: f64,
}

struct BurstStats {
    burst_arrivals: u64,
    high_priority_accepted: u64,
    explicit_sheds: u64,
    queue_bound: usize,
    queue_depth_max: u64,
    admit_p99_us: f64,
}

struct CrashStats {
    crash_points: usize,
    recovery_mean_ms: f64,
    recovery_full_ms: f64,
}

fn tree() -> DcTree {
    fat_tree(4, Resources::new(400.0, 64.0, 1000.0), 1000.0)
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        queue_capacity: 32,
        batch_max: 32,
        bucket_capacity: 64,
        tokens_per_epoch: 40,
        snapshot_every: 4,
        ..ServiceConfig::default()
    }
}

fn run_soak(epochs: usize) -> (SoakStats, Vec<u8>) {
    // 48 mutations/epoch against a 32-deep queue and a 40-token refill:
    // the trace oversubscribes both bounds, so backpressure is exercised
    // on every epoch, not just in the dedicated burst phase.
    let trace_cfg = ServiceTraceConfig {
        seed: 42,
        requests_per_epoch: 48,
        ..ServiceTraceConfig::default()
    };
    let cfg = service_cfg();
    let trace = generate_trace(&trace_cfg, epochs, cfg.epoch_ticks);
    let mut d = PlacementDaemon::new(cfg, tree());

    let mut lat_ns: Vec<u64> = Vec::new();
    let mut arrivals = 0u64;
    let mut accepted = 0u64;
    let mut rejected = 0u64;
    let mut sheds = 0u64;
    let mut placed = 0u64;
    let mut queue_depth_max = 0u64;

    let wall = Instant::now();
    for (epoch, reqs) in trace.iter().enumerate() {
        for (tick, req) in reqs {
            arrivals += 1;
            let t = Instant::now();
            let resp = d.submit(*tick, req.clone());
            lat_ns.push(t.elapsed().as_nanos() as u64);
            match resp {
                Response::Accepted { .. } => accepted += 1,
                Response::Rejected { .. } => rejected += 1,
                _ => {}
            }
        }
        let rec = d
            .commit_epoch(epoch as u64)
            .unwrap_or_else(|e| die(&format!("soak commit {epoch}: {e}")));
        sheds += rec.shed_queue + rec.shed_planner;
        placed += rec.placed;
        queue_depth_max = queue_depth_max.max(rec.queue_depth_max);
        let _ = d.drain_outbox();
    }
    let soak_wall_s = wall.elapsed().as_secs_f64();

    lat_ns.sort_unstable();
    let stats = SoakStats {
        arrivals,
        accepted,
        rejected,
        sheds,
        placed,
        queue_depth_max,
        admit_p50_us: percentile_us(&lat_ns, 0.50),
        admit_p99_us: percentile_us(&lat_ns, 0.99),
        placements_per_sec: if soak_wall_s > 0.0 {
            placed as f64 / soak_wall_s
        } else {
            0.0
        },
        soak_wall_s,
    };
    (stats, d.wal_bytes().to_vec())
}

fn run_burst() -> BurstStats {
    let cfg = service_cfg();
    let cap = cfg.queue_capacity;
    let bound = cap;
    let mut d = PlacementDaemon::new(cfg, tree());
    let demand = Resources::new(8.0, 1.0, 20.0);

    // 2× the queue bound in low-priority admits, then a quarter-bound wave
    // of top-priority admits: the storm must not starve them.
    let mut lat_ns: Vec<u64> = Vec::new();
    let mut arrivals = 0u64;
    let mut tag = 0u64;
    for _ in 0..2 * bound {
        tag += 1;
        arrivals += 1;
        let t = Instant::now();
        let _ = d.submit(
            tag,
            Request::Admit {
                priority: 1,
                demand,
                deadline_ticks: 0,
                tag,
            },
        );
        lat_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut high_priority_accepted = 0u64;
    for _ in 0..bound / 4 {
        tag += 1;
        arrivals += 1;
        let t = Instant::now();
        let resp = d.submit(
            tag,
            Request::Admit {
                priority: Priority::MAX,
                demand,
                deadline_ticks: 0,
                tag,
            },
        );
        lat_ns.push(t.elapsed().as_nanos() as u64);
        if matches!(resp, Response::Accepted { .. }) {
            high_priority_accepted += 1;
        }
    }
    let rec = d
        .commit_epoch(0)
        .unwrap_or_else(|e| die(&format!("burst commit: {e}")));
    let explicit_sheds = d
        .drain_outbox()
        .iter()
        .filter(|r| matches!(r, Response::Shed { .. }))
        .count() as u64;

    if high_priority_accepted == 0 {
        die("overload burst starved every high-priority admit");
    }
    if rec.queue_depth_max > bound as u64 {
        die("admission queue exceeded its bound under burst");
    }
    if explicit_sheds == 0 {
        die("burst evictions produced no explicit Shed outcomes");
    }

    lat_ns.sort_unstable();
    BurstStats {
        burst_arrivals: arrivals,
        high_priority_accepted,
        explicit_sheds,
        queue_bound: bound,
        queue_depth_max: rec.queue_depth_max,
        admit_p99_us: percentile_us(&lat_ns, 0.99),
    }
}

/// Phase 3: recover from every record boundary of the reference journal,
/// then from the whole log, timed on its own.
fn run_crash_drill(reference_wal: &[u8]) -> CrashStats {
    let boundaries = Wal::record_ends(reference_wal);
    if boundaries.len() < 30 {
        die(&format!(
            "reference WAL has only {} record boundaries; need ≥ 30 crash points",
            boundaries.len()
        ));
    }
    let cuts: Vec<usize> = boundaries
        .iter()
        .copied()
        .chain([reference_wal.len()])
        .collect();
    let secs = crash_drill(&service_cfg(), &tree(), reference_wal, &cuts);
    let (full_s, boundary_s) = secs.split_last().unwrap_or((&0.0, &[]));
    CrashStats {
        crash_points: boundaries.len(),
        recovery_mean_ms: boundary_s.iter().sum::<f64>() * 1_000.0 / boundaries.len() as f64,
        recovery_full_ms: full_s * 1_000.0,
    }
}

fn to_json(epochs: usize, soak: &SoakStats, burst: &BurstStats, crash: &CrashStats) -> String {
    format!(
        "[\n{{\n  \"bench\": \"service-soak\",\n  \"servers\": 16,\n  \"epochs\": {},\n  \
         \"arrivals\": {},\n  \"accepted\": {},\n  \"rejected\": {},\n  \"sheds\": {},\n  \
         \"placed\": {},\n  \"queue_depth_max\": {},\n  \"placements_per_sec\": {:.1},\n  \
         \"admit_p50_us\": {:.2},\n  \"admit_p99_us\": {:.2},\n  \"shed_rate\": {:.4},\n  \
         \"soak_wall_s\": {:.4},\n  \"overload_burst\": {{\n    \"factor\": 2,\n    \
         \"arrivals\": {},\n    \"high_priority_accepted\": {},\n    \
         \"explicit_sheds\": {},\n    \"queue_bound\": {},\n    \"queue_depth_max\": {},\n    \
         \"admit_p99_us\": {:.2}\n  }},\n  \"crash_drill\": {{\n    \"crash_points\": {},\n    \
         \"byte_identical\": true,\n    \"recovery_mean_ms\": {:.3},\n    \
         \"recovery_full_ms\": {:.3}\n  }}\n}}\n]\n",
        epochs,
        soak.arrivals,
        soak.accepted,
        soak.rejected,
        soak.sheds,
        soak.placed,
        soak.queue_depth_max,
        soak.placements_per_sec,
        soak.admit_p50_us,
        soak.admit_p99_us,
        soak.sheds as f64 / soak.arrivals.max(1) as f64,
        soak.soak_wall_s,
        burst.burst_arrivals,
        burst.high_priority_accepted,
        burst.explicit_sheds,
        burst.queue_bound,
        burst.queue_depth_max,
        burst.admit_p99_us,
        crash.crash_points,
        crash.recovery_mean_ms,
        crash.recovery_full_ms,
    )
}

fn main() {
    let epochs = arg_value("--epochs")
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(40);

    println!("== Service soak: {epochs} epochs, 16 servers ==\n");

    let (soak, reference_wal) = run_soak(epochs);
    let burst = run_burst();
    let crash = run_crash_drill(&reference_wal);

    let rows = vec![
        vec![
            "soak".to_string(),
            format!("{} arrivals", soak.arrivals),
            fmt(soak.placements_per_sec, 1),
            fmt(soak.admit_p50_us, 2),
            fmt(soak.admit_p99_us, 2),
            format!("{} sheds / {} rejects", soak.sheds, soak.rejected),
        ],
        vec![
            "burst 2x".to_string(),
            format!("{} arrivals", burst.burst_arrivals),
            "-".to_string(),
            "-".to_string(),
            fmt(burst.admit_p99_us, 2),
            format!(
                "{} hi-pri accepted, {} sheds, depth {}/{}",
                burst.high_priority_accepted,
                burst.explicit_sheds,
                burst.queue_depth_max,
                burst.queue_bound
            ),
        ],
        vec![
            "crash drill".to_string(),
            format!("{} points", crash.crash_points),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!(
                "byte-identical, recover mean {:.3} ms / full {:.3} ms",
                crash.recovery_mean_ms, crash.recovery_full_ms
            ),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["phase", "volume", "placed/s", "p50 us", "p99 us", "notes"],
            &rows,
        )
    );

    write_result(
        "BENCH_service.json",
        "perf record",
        &to_json(epochs, &soak, &burst, &crash),
    );
}
