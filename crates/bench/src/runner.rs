//! Shared harness for the experiment binaries.
//!
//! [`timed_lineup`] times a scenario's policy lineup sequentially and at
//! each requested thread budget, asserts every run is byte-identical to the
//! sequential reference (the CSV serialization of every record must match
//! exactly), and returns one [`LineupBench`] record per budget for a
//! hand-rolled `results/BENCH_*.json` perf file. [`crash_drill`] is the
//! soak bins' one kill -9 drill, and [`write_result`] is the one way a
//! binary writes a file under `results/`.

use std::time::Instant;

use goldilocks_cluster::Wal;
use goldilocks_core::ServiceConfig;
use goldilocks_partition::ParallelConfig;
use goldilocks_placement::PlaceError;
use goldilocks_service::PlacementDaemon;
use goldilocks_sim::epoch::{run_policies_with, Policy, PolicyRun, Scenario};
use goldilocks_sim::report::runs_to_csv;
use goldilocks_topology::DcTree;

/// One benchmark record: a scenario's lineup timed sequential vs parallel.
#[derive(Clone, Debug)]
pub struct LineupBench {
    /// Short bench name (`"fig13"` …) — becomes the JSON `bench` field.
    pub bench: String,
    /// Scenario name as reported by the scenario builder.
    pub scenario: String,
    /// Topology size.
    pub servers: usize,
    /// Containers in the base workload.
    pub containers: usize,
    /// Epoch count.
    pub epochs: usize,
    /// Thread budget of the parallel run.
    pub threads: usize,
    /// Wall-clock of the sequential (`threads = 1`) lineup, seconds.
    pub sequential_s: f64,
    /// Wall-clock of the parallel lineup, seconds.
    pub parallel_s: f64,
}

impl LineupBench {
    /// Parallel speedup over the sequential run.
    pub fn speedup(&self) -> f64 {
        if self.parallel_s > 0.0 {
            self.sequential_s / self.parallel_s
        } else {
            0.0
        }
    }

    /// Hand-rolled JSON object (no serde at runtime in this workspace).
    pub fn to_json(&self) -> String {
        format!(
            "{{\n  \"bench\": \"{}\",\n  \"scenario\": \"{}\",\n  \"servers\": {},\n  \
             \"containers\": {},\n  \"epochs\": {},\n  \"threads\": {},\n  \
             \"sequential_s\": {:.4},\n  \"parallel_s\": {:.4},\n  \"speedup\": {:.3}\n}}",
            self.bench,
            self.scenario,
            self.servers,
            self.containers,
            self.epochs,
            self.threads,
            self.sequential_s,
            self.parallel_s,
            self.speedup(),
        )
    }
}

/// Runs `scenario`'s lineup once sequentially, then once per entry of
/// `thread_counts`, and returns the sequential runs with one timing record
/// per thread count.
///
/// # Panics
///
/// Panics if any thread count's serialized records differ from the
/// sequential reference — that would be a determinism bug, never a
/// tolerable outcome.
///
/// # Errors
///
/// Propagates the first policy failure.
pub fn timed_lineup(
    bench: &str,
    scenario: &Scenario,
    thread_counts: &[usize],
) -> Result<(Vec<PolicyRun>, Vec<LineupBench>), PlaceError> {
    let t = Instant::now();
    let sequential = run_policies_with(scenario, &Policy::lineup(), &ParallelConfig::sequential())?;
    let sequential_s = t.elapsed().as_secs_f64();
    let reference = runs_to_csv(&sequential);

    let mut records = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let parallel = ParallelConfig::with_threads(threads);
        let t = Instant::now();
        let runs = run_policies_with(scenario, &Policy::lineup(), &parallel)?;
        let parallel_s = t.elapsed().as_secs_f64();
        assert!(
            runs_to_csv(&runs) == reference,
            "{threads}-thread lineup diverged from the sequential reference on {}",
            scenario.name
        );
        records.push(LineupBench {
            bench: bench.to_string(),
            scenario: scenario.name.clone(),
            servers: scenario.tree.server_count(),
            containers: scenario.base.len(),
            epochs: scenario.epochs.len(),
            threads: parallel.threads,
            sequential_s,
            parallel_s,
        });
    }
    Ok((sequential, records))
}

/// Recovers a daemon from the first `cut` bytes of `reference_wal` for
/// each of `cuts`, as a kill -9 at that offset would leave the journal,
/// and returns each recovery's wall time in seconds, in `cuts` order.
///
/// Dies unless every recovered journal is a byte-exact prefix of
/// `reference_wal` holding every whole record of its cut: recovery may
/// drop a torn tail and roll an open epoch forward, but never rewrites or
/// loses journaled history. A cut at the full length must therefore
/// recover the whole journal.
pub fn crash_drill(
    service: &ServiceConfig,
    tree: &DcTree,
    reference_wal: &[u8],
    cuts: &[usize],
) -> Vec<f64> {
    let ends = Wal::record_ends(reference_wal);
    cuts.iter()
        .map(|&cut| {
            let whole = ends[..ends.partition_point(|&e| e <= cut)]
                .last()
                .copied()
                .unwrap_or(0);
            let t = Instant::now();
            let (d, _) =
                PlacementDaemon::recover(service.clone(), tree.clone(), &reference_wal[..cut])
                    .unwrap_or_else(|e| die(&format!("recovery at cut {cut} failed: {e}")));
            let secs = t.elapsed().as_secs_f64();
            if !reference_wal.starts_with(d.wal_bytes()) || d.wal_bytes().len() < whole {
                die(&format!(
                    "the recovery at cut {cut} diverged from the reference journal"
                ));
            }
            secs
        })
        .collect()
}

/// Prints `msg` to stderr and exits with status 2.
///
/// Bench binaries are experiment drivers: a broken scenario is not
/// recoverable, but a clean exit keeps panics (and their backtraces) out of
/// the perf harness output.
pub fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Returns the value following `flag` in the binary's argv, if present.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if let [f, value] = pair {
            if f == flag {
                return Some(value.clone());
            }
        }
    }
    None
}

/// The `q` quantile of `sorted_ns` (ascending nanoseconds) in microseconds:
/// the element at rank `(len - 1) * q`, rounded; 0 for an empty slice.
pub fn percentile_us(sorted_ns: &[u64], q: f64) -> f64 {
    let Some(last) = sorted_ns.len().checked_sub(1) else {
        return 0.0;
    };
    let idx = ((last as f64 * q).round() as usize).min(last);
    sorted_ns[idx] as f64 / 1_000.0
}

/// Resolves `name` under the repository's `results/` directory, anchored at
/// the workspace root via this crate's manifest dir — so every bench binary
/// writes the same `results/` tree no matter which directory it is launched
/// from.
pub fn results_path(name: &str) -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..");
    root.join("results")
        .join(name)
        .to_string_lossy()
        .into_owned()
}

/// Writes `contents` to `results/<name>` and prints
/// `(<label> written to results/<name>)` followed by a blank line. The
/// printed path is repository-relative, so the output is the same in every
/// checkout.
///
/// Dies on any filesystem error: a failed write must not leave a stale
/// file behind a successful run.
pub fn write_result(name: &str, label: &str, contents: &str) {
    let path = results_path(name);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            die(&format!("create {}: {e}", dir.display()));
        }
    }
    if let Err(e) = std::fs::write(&path, contents) {
        die(&format!("write {path}: {e}"));
    }
    println!("{}\n", written_line(name, label));
}

/// The line [`write_result`] prints for `results/<name>`.
fn written_line(name: &str, label: &str) -> String {
    format!("({label} written to results/{name})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldilocks_sim::scenarios::wiki_testbed;

    #[test]
    fn timed_lineup_is_identical_at_every_thread_count() {
        let s = wiki_testbed(4, 40, 7);
        let (runs, benches) = timed_lineup("test", &s, &[1, 4]).expect("feasible");
        assert_eq!(runs.len(), 5);
        assert_eq!(
            benches.iter().map(|b| b.threads).collect::<Vec<_>>(),
            [1, 4]
        );
        for bench in &benches {
            assert!(bench.sequential_s > 0.0 && bench.parallel_s > 0.0);
            assert_eq!(bench.sequential_s, benches[0].sequential_s);
        }
    }

    #[test]
    fn json_round_trip_shape() {
        let s = wiki_testbed(3, 30, 8);
        let (_, benches) = timed_lineup("json", &s, &[2]).expect("feasible");
        let json = benches[0].to_json();
        assert!(json.starts_with('{'));
        assert!(json.contains("\"bench\": \"json\""));
        assert!(json.contains("\"threads\": 2"));
        assert!(json.contains("\"speedup\""));
        assert!(json.ends_with('}'));
    }

    #[test]
    fn percentile_us_picks_the_rounded_rank() {
        assert_eq!(percentile_us(&[], 0.5), 0.0);
        assert_eq!(percentile_us(&[], 0.99), 0.0);
        // 1 µs … 100 µs: rank 99 · 0.5 = 49.5 rounds to 50, 99 · 0.99 to 98.
        let sorted: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert_eq!(percentile_us(&sorted, 0.50), 51.0);
        assert_eq!(percentile_us(&sorted, 0.99), 99.0);
        assert_eq!(percentile_us(&sorted, 1.0), 100.0);
        assert_eq!(percentile_us(&[7_500], 0.99), 7.5);
    }

    #[test]
    fn write_result_prints_the_repo_relative_path() {
        assert_eq!(
            written_line("fig09_timeseries.csv", "time series"),
            "(time series written to results/fig09_timeseries.csv)"
        );
        assert!(results_path("fig09_timeseries.csv").ends_with("results/fig09_timeseries.csv"));
    }

    #[test]
    fn results_path_is_absolute_and_cwd_independent() {
        let p = results_path("BENCH_x.json");
        assert!(std::path::Path::new(&p).is_absolute(), "{p}");
        assert!(p.ends_with("BENCH_x.json"), "{p}");
        assert!(p.contains("results"), "{p}");
    }
}
