//! Shared pieces of the server benchmark (`bench_server`): the fixed
//! load shapes, the cold/warm measurement procedure, and the gate
//! document.
//!
//! The gate has the usual two halves:
//!
//! * **exact** — per-rank completion rounds (result exactness: every
//!   pool sequence's gossip time is a deterministic function of the
//!   seed) and the warm pass's hit/miss counters plus hit rate in
//!   permille (after priming, the deterministic single-threaded request
//!   stream must run entirely warm). Any drift is a correctness failure
//!   and is *never* skipped.
//! * **wall** — the warm ns/request against the checked-in baseline at
//!   +25%, and the headline warm-over-cold speedup floor of
//!   [`MIN_SPEEDUP`]×. Both skippable via `TREECAST_BENCH_GATE=off`.
//!
//! "Cold" is the same engine with a zero-budget cache
//! ([`CacheConfig::disabled`]) serving the identical seeded request
//! stream, so the ratio isolates exactly what the sharded cache buys.

use treecast_client::{LoadConfig, LoadGen, LoadReport};
use treecast_server::{CacheConfig, Request, Response, Server, ServerConfig, WorkloadSpec};

use crate::gate::{GateReport, Wall};

/// The warm-over-cold throughput floor the full gate enforces.
pub const MIN_SPEEDUP: f64 = 5.0;

/// The full measurement shape: `n = 1024`, a 24-sequence pool under
/// Zipf(1.1) skew, 10⁴ warm requests (the cold pass reuses the stream's
/// prefix — at ~1 ms per uncached request the full stream would be all
/// cold wall time for no extra signal).
#[must_use]
pub fn full_load() -> LoadConfig {
    LoadConfig {
        n: 1024,
        pool_size: 24,
        seq_len: 32,
        requests: 10_000,
        zipf_s: 1.1,
        seed: 0x5EED_CA5E,
        workload: WorkloadSpec::Gossip,
        rounds: 0,
    }
}

/// The quick-tier smoke shape: same procedure, toy sizes.
#[must_use]
pub fn smoke_load() -> LoadConfig {
    LoadConfig {
        n: 64,
        pool_size: 6,
        seq_len: 24,
        requests: 300,
        zipf_s: 1.1,
        seed: 0x5EED_CA5E,
        workload: WorkloadSpec::Gossip,
        rounds: 0,
    }
}

/// Requests served by the cold (uncached) pass.
#[must_use]
pub fn cold_requests(load: &LoadConfig) -> usize {
    (load.requests / 20).max(50).min(load.requests)
}

/// One server measurement: the `info` of `results/BENCH_server.json`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServerBenchReport {
    /// Load shape used.
    pub load: LoadConfig,
    /// Gossip completion round of each pool sequence, rank order
    /// (exact cells; `-1` = hit the round cap).
    pub completion_rounds: Vec<i64>,
    /// Cache hits of the warm serial pass (exact cell).
    pub warm_hits: i64,
    /// Cache misses of the warm serial pass (exact cell — 0 after
    /// priming).
    pub warm_misses: i64,
    /// Warm hit rate in permille (exact cell — 1000 after priming).
    pub warm_hit_rate_permille: i64,
    /// Requests the cold pass served.
    pub cold_requests: u64,
    /// Uncached ns per request.
    pub cold_ns_per_request: f64,
    /// Warm (cached) ns per request — the wall-gated cell.
    pub warm_ns_per_request: f64,
    /// `cold_ns_per_request / warm_ns_per_request` — the headline number.
    pub speedup: f64,
    /// Warm requests per second (serial).
    pub warm_qps: f64,
    /// Warm median latency.
    pub p50_ns: u64,
    /// Warm 99th-percentile latency.
    pub p99_ns: u64,
    /// Warm 99.9th-percentile latency.
    pub p999_ns: u64,
    /// Worker threads of the batched pass.
    pub workers: u64,
    /// Requests per second of the threaded `serve_batch` pass over the
    /// warm cache (informational; equals serial throughput on 1 core).
    pub threaded_qps: f64,
}

impl ServerBenchReport {
    /// The `BENCH_server.json` gate document: per-rank completion rounds
    /// and the warm cache counters are exact cells; the wall is the warm
    /// ns/request.
    #[must_use]
    pub fn gate_report(&self) -> GateReport {
        let completion = self
            .completion_rounds
            .iter()
            .enumerate()
            .map(|(rank, &rounds)| (format!("completion/rank{rank}"), rounds));
        let cache = [
            ("cache/warm_hits".to_string(), self.warm_hits),
            ("cache/warm_misses".to_string(), self.warm_misses),
            (
                "cache/hit_rate_permille".to_string(),
                self.warm_hit_rate_permille,
            ),
        ];
        GateReport {
            bench: "server".into(),
            exact: completion.chain(cache).collect(),
            wall: Wall {
                label: format!("warm_serve n={}", self.load.n),
                value: self.warm_ns_per_request,
                unit: "ns/request".into(),
            },
            info: serde::Serialize::to_value(self),
        }
    }

    /// The headline floor: warm serving must beat the uncached engine
    /// by at least [`MIN_SPEEDUP`]×.
    ///
    /// # Errors
    ///
    /// The `REGRESSION: …` message when the speedup is below the floor.
    pub fn speedup_floor(&self) -> Result<String, String> {
        if self.speedup >= MIN_SPEEDUP {
            Ok(format!(
                "gate ok: speedup {:.1}x >= {MIN_SPEEDUP}x floor",
                self.speedup
            ))
        } else {
            Err(format!(
                "REGRESSION: warm-over-cold speedup {:.1}x fell below the {MIN_SPEEDUP}x floor",
                self.speedup
            ))
        }
    }
}

/// Serves every pool sequence once on `server`, returning each
/// rank's completion round (`-1` = cap). Doubles as the cache-priming
/// pass: afterwards every prefix any stream request needs is resident.
pub fn prime(server: &Server, gen: &LoadGen) -> Vec<i64> {
    gen.pool()
        .iter()
        .map(|sequence| {
            let request = Request::BroadcastTime {
                tree_sequence: sequence.clone(),
                workload: gen.config().workload.clone(),
                rounds: gen.config().rounds,
            };
            match server.serve(&request) {
                Response::BroadcastTime { report } => {
                    report.completion_time.map_or(-1, |t| t as i64)
                }
                other => panic!("priming request failed: {other:?}"),
            }
        })
        .collect()
}

/// Runs the whole cold/warm/threaded procedure for one load shape.
#[must_use]
pub fn measure(load: &LoadConfig) -> ServerBenchReport {
    // Cold: zero-budget cache, a fresh generator replaying the same
    // seeded stream's prefix.
    let cold_count = cold_requests(load);
    let mut cold_gen = LoadGen::new(LoadConfig {
        requests: cold_count,
        ..load.clone()
    });
    let cold_server = Server::new(ServerConfig {
        workers: 1,
        cache: CacheConfig::disabled(),
    });
    let cold = cold_gen.run_serial(&cold_server);

    // Warm: default cache, primed by the per-rank completion pass, then
    // the full stream single-threaded (the deterministic exact cells).
    let mut warm_gen = LoadGen::new(load.clone());
    let warm_server = Server::new(ServerConfig {
        workers: 1,
        cache: CacheConfig::default(),
    });
    let completion_rounds = prime(&warm_server, &warm_gen);
    let warm = warm_gen.run_serial(&warm_server);

    // Threaded: `serve_batch` on several threads over a warm cache.
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let batch_server = Server::new(ServerConfig {
        workers,
        cache: CacheConfig::default(),
    });
    let mut batch_gen = LoadGen::new(load.clone());
    let _ = prime(&batch_server, &batch_gen);
    // A modest batch: `serve_batch` needs the requests materialized up
    // front, and a big-`n` request is ~`seq_len` tree clones of memory.
    let batch = batch_gen.requests(load.requests.min(500));
    let start = std::time::Instant::now();
    let responses = batch_server.serve_batch(&batch);
    let batch_ns = start.elapsed().as_nanos().max(1) as f64;
    assert!(responses.iter().all(|r| r.report().is_some()));
    let threaded_qps = batch.len() as f64 / (batch_ns / 1e9);

    report_from(load, completion_rounds, &cold, &warm, workers, threaded_qps)
}

fn report_from(
    load: &LoadConfig,
    completion_rounds: Vec<i64>,
    cold: &LoadReport,
    warm: &LoadReport,
    workers: usize,
    threaded_qps: f64,
) -> ServerBenchReport {
    let cold_ns = cold.elapsed_ns as f64 / cold.requests.max(1) as f64;
    let warm_ns = warm.elapsed_ns as f64 / warm.requests.max(1) as f64;
    let lookups = warm.hits + warm.misses;
    ServerBenchReport {
        load: load.clone(),
        completion_rounds,
        warm_hits: warm.hits as i64,
        warm_misses: warm.misses as i64,
        warm_hit_rate_permille: (warm.hits * 1000).checked_div(lookups).unwrap_or(0) as i64,
        cold_requests: cold.requests,
        cold_ns_per_request: cold_ns,
        warm_ns_per_request: warm_ns,
        speedup: if warm_ns > 0.0 {
            cold_ns / warm_ns
        } else {
            0.0
        },
        warm_qps: warm.qps,
        p50_ns: warm.p50_ns,
        p99_ns: warm.p99_ns,
        p999_ns: warm.p999_ns,
        workers: workers as u64,
        threaded_qps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_shape_runs_warm_and_faster() {
        let report = measure(&smoke_load());
        assert!(
            report.completion_rounds.iter().all(|&r| r > 0),
            "every pool sequence must complete: {:?}",
            report.completion_rounds
        );
        assert_eq!(report.warm_misses, 0, "priming must cover the stream");
        assert_eq!(report.warm_hit_rate_permille, 1000);
        assert!(
            report.speedup > 1.0,
            "warm serving must beat the uncached engine even at toy sizes: {report:?}"
        );
    }

    #[test]
    fn exact_cells_are_deterministic_across_runs() {
        let a = measure(&smoke_load());
        let b = measure(&smoke_load());
        assert_eq!(a.gate_report().exact, b.gate_report().exact);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = measure(&smoke_load());
        let text = serde::json::to_string_pretty(&report);
        let back: ServerBenchReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, report);
        let gate = report.gate_report();
        assert_eq!(gate.exact.0.len(), report.load.pool_size + 3);
        assert_eq!(gate.info, serde::json::value_from_str(&text).unwrap());
    }

    #[test]
    fn speedup_floor_is_five_x() {
        let mut report = measure(&smoke_load());
        report.speedup = MIN_SPEEDUP;
        assert!(report.speedup_floor().is_ok());
        report.speedup = MIN_SPEEDUP - 0.1;
        assert!(report.speedup_floor().unwrap_err().contains("floor"));
    }
}
