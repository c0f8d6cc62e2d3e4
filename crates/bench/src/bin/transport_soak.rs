//! Transport soak bench: real loopback sockets end to end, emitting
//! `results/BENCH_transport.json` — the per-PR transport-layer record
//! (QPS, p50/p99 RTT, reconnect-storm idempotency, kill -9 recovery).
//!
//! Three phases:
//!
//! 1. **Loopback QPS** — N client threads hammer a [`TcpServer`] over
//!    127.0.0.1 with admit/remove traffic while the epoch pump commits
//!    placements; every call's round-trip is timed and the acked-call
//!    rate must clear `--min-qps` (default 5000).
//! 2. **Reconnect storm** — a fleet of clients whose connections are cut
//!    by a seeded chopper transport every few operations; every logical
//!    call must still land exactly once (client-assigned request ids +
//!    the daemon's WAL-riding dedup window), proven by checking zero
//!    duplicate and zero lost sequence numbers against the drained
//!    daemon's journal.
//! 3. **kill -9 drill** — the storm's journal is cut at every record
//!    boundary plus seeded torn mid-record points; each recovery must
//!    yield a byte-exact prefix of the uninterrupted journal. If the
//!    server compacted its journal onto a snapshot pair, cuts start past
//!    that pair, which compaction leaves whole.
//!
//! Usage: `transport_soak [--smoke] [--min-qps Q] [--clients N]
//! [--calls C] [--storm-clients N] [--storm-calls C]`.

use std::sync::Mutex;
use std::time::Instant;

use goldilocks_bench::runner::{arg_value, crash_drill, die, percentile_us, write_result};
use goldilocks_cluster::{Wal, WalEvent};
use goldilocks_core::ServiceConfig;
use goldilocks_rng::SplitMix64;
use goldilocks_service::{
    ClientConfig, ClientError, Conn, PlacementDaemon, ServerConfig, ServiceClient, TcpServer,
    TcpTransport, Transport, TransportError,
};
use goldilocks_sim::report::{fmt, render_table};
use goldilocks_topology::builders::fat_tree;
use goldilocks_topology::{DcTree, Resources};

fn tree() -> DcTree {
    fat_tree(4, Resources::new(400.0, 64.0, 1000.0), 1000.0)
}

fn service_cfg() -> ServiceConfig {
    // Generous admission bounds: this bench measures the wire, not the
    // backpressure path (service_soak covers that).
    ServiceConfig {
        queue_capacity: 4096,
        outbox_capacity: 4096,
        batch_max: 4096,
        bucket_capacity: 1 << 20,
        tokens_per_epoch: 1 << 20,
        default_deadline_ticks: 1 << 40,
        snapshot_every: 64,
        ..ServiceConfig::default()
    }
}

fn server_cfg() -> ServerConfig {
    ServerConfig {
        max_connections: 512,
        poll_ms: 2,
        idle_timeout_ms: 5_000,
        drain_wait_ms: 5_000,
        epoch_interval_ms: 5,
        ..ServerConfig::default()
    }
}

fn demand() -> Resources {
    Resources::new(1.0, 0.25, 2.0)
}

struct QpsStats {
    clients: usize,
    calls: u64,
    acked: u64,
    qps: f64,
    rtt_p50_us: f64,
    rtt_p99_us: f64,
    placed_total: u64,
    epochs_committed: u64,
    wall_s: f64,
}

/// Phase 1: loopback throughput + RTT under concurrent clients.
fn run_qps(clients: usize, calls_per_client: usize, min_qps: f64) -> QpsStats {
    let handle = TcpServer::start(
        PlacementDaemon::new(service_cfg(), tree()),
        server_cfg(),
        "127.0.0.1:0",
    )
    .unwrap_or_else(|e| die(&format!("bind: {e}")));
    let addr = handle.addr();

    let all_lat: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let acked: Mutex<u64> = Mutex::new(0);
    let wall = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let all_lat = &all_lat;
            let acked = &acked;
            s.spawn(move || {
                let mut client = ServiceClient::new(
                    TcpTransport::new(addr).with_poll_ms(2),
                    ClientConfig {
                        client_id: 1 + c as u64,
                        ..ClientConfig::default()
                    },
                );
                let mut lat = Vec::with_capacity(calls_per_client);
                let mut ok = 0u64;
                let mut pool: Vec<u64> = Vec::new();
                for i in 0..calls_per_client {
                    let t = Instant::now();
                    let res = if pool.len() >= 32 {
                        let target = pool.swap_remove(i % pool.len());
                        client.remove(target, 5, 0)
                    } else {
                        client.admit(5, demand(), 0)
                    };
                    lat.push(t.elapsed().as_nanos() as u64);
                    match res {
                        Ok(seq) => {
                            ok += 1;
                            if pool.len() < 32 {
                                pool.push(seq);
                            }
                        }
                        Err(e) => die(&format!("qps client {c} call {i}: {e}")),
                    }
                }
                all_lat
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(lat);
                *acked.lock().unwrap_or_else(|p| p.into_inner()) += ok;
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    let stats = handle.stats();
    let _ = handle
        .drain()
        .unwrap_or_else(|| die("qps server failed to drain"));

    let mut lat = match all_lat.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    lat.sort_unstable();
    let acked = match acked.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    let qps = if wall_s > 0.0 {
        acked as f64 / wall_s
    } else {
        0.0
    };
    if qps < min_qps {
        die(&format!(
            "loopback throughput {qps:.1} acked calls/sec is below the {min_qps:.0} floor"
        ));
    }
    QpsStats {
        clients,
        calls: lat.len() as u64,
        acked,
        qps,
        rtt_p50_us: percentile_us(&lat, 0.50),
        rtt_p99_us: percentile_us(&lat, 0.99),
        placed_total: stats.placed_total,
        epochs_committed: stats.epochs_committed,
        wall_s,
    }
}

/// A chopper transport: every connection it hands out dies after a
/// seeded number of socket operations — a reconnect storm in a box.
struct Chopper {
    inner: TcpTransport,
    rng: SplitMix64,
}

struct ChopConn {
    inner: <TcpTransport as Transport>::C,
    ops_left: u64,
}

impl Conn for ChopConn {
    fn write(&mut self, bytes: &[u8]) -> Result<usize, TransportError> {
        if self.ops_left == 0 {
            self.inner.close();
            return Err(TransportError::Disconnected);
        }
        self.ops_left -= 1;
        self.inner.write(bytes)
    }

    fn read(&mut self, buf: &mut [u8]) -> Result<usize, TransportError> {
        if self.ops_left == 0 {
            self.inner.close();
            return Err(TransportError::Disconnected);
        }
        self.ops_left -= 1;
        self.inner.read(buf)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

impl Transport for Chopper {
    type C = ChopConn;

    fn connect(&mut self) -> Result<ChopConn, TransportError> {
        let inner = self.inner.connect()?;
        Ok(ChopConn {
            inner,
            ops_left: 3 + self.rng.below(9),
        })
    }

    fn sleep_ms(&mut self, ms: u64) {
        self.inner.sleep_ms(ms);
    }

    fn poll_ms(&self) -> u64 {
        self.inner.poll_ms()
    }
}

struct StormStats {
    clients: usize,
    calls: u64,
    acked: u64,
    reconnects: u64,
    duplicate_seqs: u64,
    lost_accepts: u64,
    wall_s: f64,
}

/// Phase 2: every connection is chopped after a few operations; calls
/// must land exactly once anyway. Returns the drained journal for the
/// crash drill.
fn run_storm(clients: usize, calls_per_client: usize) -> (StormStats, Vec<u8>) {
    let handle = TcpServer::start(
        PlacementDaemon::new(service_cfg(), tree()),
        server_cfg(),
        "127.0.0.1:0",
    )
    .unwrap_or_else(|e| die(&format!("storm bind: {e}")));
    let addr = handle.addr();

    let observed: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let reconnects: Mutex<u64> = Mutex::new(0);
    let wall = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let observed = &observed;
            let reconnects = &reconnects;
            s.spawn(move || {
                let mut client = ServiceClient::new(
                    Chopper {
                        inner: TcpTransport::new(addr).with_poll_ms(2),
                        rng: SplitMix64::from_state(
                            0xC407_5EED ^ (c as u64).wrapping_mul(0x9E37_79B9),
                        ),
                    },
                    ClientConfig {
                        client_id: 1 + c as u64,
                        max_attempts: 64,
                        backoff_base_ms: 1,
                        backoff_cap_ms: 20,
                        jitter_seed: 0x5708_4A1B ^ c as u64,
                        ..ClientConfig::default()
                    },
                );
                let mut seqs = Vec::with_capacity(calls_per_client);
                let mut pool: Vec<u64> = Vec::new();
                for i in 0..calls_per_client {
                    let res = if !pool.is_empty() && i % 2 == 1 {
                        let target = pool.swap_remove(0);
                        client.remove(target, 5, 0)
                    } else {
                        client.admit(5, demand(), 0)
                    };
                    match res {
                        Ok(seq) => {
                            if i % 2 == 0 {
                                pool.push(seq);
                            }
                            seqs.push(seq);
                        }
                        // Shed/Expired still carry the journaled accept.
                        Err(ClientError::Shed { seq }) | Err(ClientError::Expired { seq }) => {
                            seqs.push(seq);
                        }
                        Err(e) => die(&format!("storm client {c} call {i}: {e}")),
                    }
                }
                observed
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .extend(seqs);
                *reconnects.lock().unwrap_or_else(|p| p.into_inner()) += client.stats().reconnects;
            });
        }
    });
    let wall_s = wall.elapsed().as_secs_f64();

    let daemon = handle
        .drain()
        .unwrap_or_else(|| die("storm server failed to drain"));

    let mut observed = match observed.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    let calls = observed.len() as u64;
    observed.sort_unstable();
    let before = observed.len();
    observed.dedup();
    let duplicate_seqs = (before - observed.len()) as u64;
    let lost_accepts = daemon.seqs_issued().saturating_sub(observed.len() as u64);
    if duplicate_seqs > 0 {
        die(&format!(
            "{duplicate_seqs} duplicate placements under the reconnect storm"
        ));
    }
    if lost_accepts > 0 {
        die(&format!(
            "{lost_accepts} journaled accepts were lost under the reconnect storm"
        ));
    }
    let reconnects = match reconnects.into_inner() {
        Ok(v) => v,
        Err(p) => p.into_inner(),
    };
    (
        StormStats {
            clients,
            calls,
            acked: calls,
            reconnects,
            duplicate_seqs,
            lost_accepts,
            wall_s,
        },
        daemon.wal_bytes().to_vec(),
    )
}

struct CrashStats {
    boundary_points: usize,
    torn_points: usize,
    recovery_mean_ms: f64,
}

/// Phase 3: kill -9 mid-stream — cut the storm journal at record
/// boundaries AND seeded torn mid-record offsets; every recovery must be
/// a byte-exact prefix of the uninterrupted journal.
fn run_crash_drill(reference_wal: &[u8]) -> CrashStats {
    let boundaries = Wal::record_ends(reference_wal);
    if boundaries.len() < 30 {
        die(&format!(
            "storm journal has only {} record boundaries; need ≥ 30 crash points",
            boundaries.len()
        ));
    }
    // A compacted journal starts with a snapshot pair that compaction
    // leaves whole: the shortest journal a crash can leave ends after it.
    let compacted = matches!(
        Wal::decode(reference_wal).events.first(),
        Some(WalEvent::Snapshot(_))
    );
    let floor = match (compacted, boundaries.get(1)) {
        (true, Some(&pair_end)) => pair_end,
        _ => 0,
    };
    // Sample boundaries down to ~200 points, evenly, plus seeded torn
    // cuts that land mid-record (the canonical kill -9 shape).
    let step = (boundaries.len() / 200).max(1);
    let sampled: Vec<usize> = boundaries
        .iter()
        .copied()
        .filter(|&b| b >= floor)
        .step_by(step)
        .collect();
    let mut rng = SplitMix64::from_state(0x0DEA_DC41);
    let torn: Vec<usize> = (0..100)
        .map(|_| floor + 1 + rng.range(0..reference_wal.len() - floor - 1))
        .collect();

    let cuts: Vec<usize> = sampled.iter().chain(&torn).copied().collect();
    let secs = crash_drill(&service_cfg(), &tree(), reference_wal, &cuts);
    CrashStats {
        boundary_points: sampled.len(),
        torn_points: torn.len(),
        recovery_mean_ms: secs.iter().sum::<f64>() * 1_000.0 / cuts.len().max(1) as f64,
    }
}

fn to_json(qps: &QpsStats, storm: &StormStats, crash: &CrashStats) -> String {
    format!(
        "[\n{{\n  \"bench\": \"transport-soak\",\n  \"servers\": 16,\n  \
         \"loopback\": {{\n    \"clients\": {},\n    \"calls\": {},\n    \"acked\": {},\n    \
         \"qps\": {:.1},\n    \"rtt_p50_us\": {:.2},\n    \"rtt_p99_us\": {:.2},\n    \
         \"placed_total\": {},\n    \"epochs_committed\": {},\n    \"wall_s\": {:.4}\n  }},\n  \
         \"reconnect_storm\": {{\n    \"clients\": {},\n    \"calls\": {},\n    \
         \"acked\": {},\n    \"reconnects\": {},\n    \"duplicate_seqs\": {},\n    \
         \"lost_accepts\": {},\n    \"wall_s\": {:.4}\n  }},\n  \
         \"kill9_drill\": {{\n    \"boundary_points\": {},\n    \"torn_points\": {},\n    \
         \"byte_identical\": true,\n    \"recovery_mean_ms\": {:.3}\n  }}\n}}\n]\n",
        qps.clients,
        qps.calls,
        qps.acked,
        qps.qps,
        qps.rtt_p50_us,
        qps.rtt_p99_us,
        qps.placed_total,
        qps.epochs_committed,
        qps.wall_s,
        storm.clients,
        storm.calls,
        storm.acked,
        storm.reconnects,
        storm.duplicate_seqs,
        storm.lost_accepts,
        storm.wall_s,
        crash.boundary_points,
        crash.torn_points,
        crash.recovery_mean_ms,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let clients = arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 4 } else { 8 });
    let calls = arg_value("--calls")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 400 } else { 4000 });
    let storm_clients = arg_value("--storm-clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 24 } else { 100 });
    let storm_calls = arg_value("--storm-calls")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8 } else { 16 });
    let min_qps = arg_value("--min-qps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1000.0 } else { 5000.0 });

    println!(
        "== Transport soak: {clients} clients x {calls} calls, storm {storm_clients} x {storm_calls}, min {min_qps:.0} qps ==\n"
    );

    let qps = run_qps(clients, calls, min_qps);
    let (storm, storm_wal) = run_storm(storm_clients, storm_calls);
    let crash = run_crash_drill(&storm_wal);

    let rows = vec![
        vec![
            "loopback".to_string(),
            format!(
                "{} x {}",
                qps.clients,
                qps.calls / qps.clients.max(1) as u64
            ),
            fmt(qps.qps, 1),
            fmt(qps.rtt_p50_us, 2),
            fmt(qps.rtt_p99_us, 2),
            format!(
                "{} placed over {} epochs",
                qps.placed_total, qps.epochs_committed
            ),
        ],
        vec![
            "storm".to_string(),
            format!(
                "{} x {}",
                storm.clients,
                storm.calls / storm.clients.max(1) as u64
            ),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!(
                "{} reconnects, {} dup, {} lost",
                storm.reconnects, storm.duplicate_seqs, storm.lost_accepts
            ),
        ],
        vec![
            "kill -9".to_string(),
            format!("{}+{} cuts", crash.boundary_points, crash.torn_points),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            format!(
                "byte-identical, recover mean {:.3} ms",
                crash.recovery_mean_ms
            ),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["phase", "volume", "acked/s", "p50 us", "p99 us", "notes"],
            &rows,
        )
    );

    write_result(
        "BENCH_transport.json",
        "perf record",
        &to_json(&qps, &storm, &crash),
    );
}
