//! The load generator: Zipf-skewed request streams over a pool of
//! random tree sequences.
//!
//! Real query mixes are skewed — a few schedules (the current
//! experiment's grid, the regression gate's fixtures) are asked over and
//! over while a long tail is asked once. The generator models that with
//! a Zipf distribution over a seeded pool of uniform random tree
//! sequences: rank `r` is drawn with probability `∝ 1/(r+1)^s`. Skew `s`
//! is the knob the server bench sweeps — high `s` concentrates requests
//! on few fingerprints (cache-friendly), `s = 0` is uniform (adversarial
//! for an LRU).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treecast_server::{Request, Server, WorkloadSpec};
use treecast_trees::{random, RootedTree};

/// Load-generator shape: pool geometry, skew, and request count.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadConfig {
    /// Processes per tree.
    pub n: usize,
    /// Distinct tree sequences in the pool.
    pub pool_size: usize,
    /// Trees per sequence.
    pub seq_len: usize,
    /// Requests issued by [`LoadGen::run_serial`].
    pub requests: usize,
    /// Zipf exponent: rank `r` drawn with probability `∝ 1/(r+1)^s`;
    /// `0.0` is uniform.
    pub zipf_s: f64,
    /// Pool and sampling seed — identical seeds replay identical streams.
    pub seed: u64,
    /// The workload every request measures.
    pub workload: WorkloadSpec,
    /// Round cap per request (0 = engine default).
    pub rounds: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            n: 64,
            pool_size: 32,
            seq_len: 8,
            requests: 10_000,
            zipf_s: 1.1,
            seed: 0x10AD,
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        }
    }
}

/// Latency and cache outcome of one load run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct LoadReport {
    /// Requests issued.
    pub requests: u64,
    /// Processes per tree.
    pub n: u64,
    /// Pool size (distinct fingerprint chains).
    pub pool_size: u64,
    /// Trees per sequence.
    pub seq_len: u64,
    /// The Zipf exponent used.
    pub zipf_s: f64,
    /// Total serving time: the sum of per-request wall times (request
    /// marshalling in the generator is excluded).
    pub elapsed_ns: u64,
    /// Requests per second.
    pub qps: f64,
    /// Median request latency.
    pub p50_ns: u64,
    /// 99th-percentile request latency.
    pub p99_ns: u64,
    /// 99.9th-percentile request latency.
    pub p999_ns: u64,
    /// Cache hits during the run.
    pub hits: u64,
    /// Cache misses during the run.
    pub misses: u64,
    /// Hits over all lookups (0 when none happened).
    pub hit_rate: f64,
}

/// The generator: a seeded sequence pool plus the Zipf CDF over its
/// ranks.
#[derive(Debug, Clone)]
pub struct LoadGen {
    config: LoadConfig,
    pool: Vec<Vec<RootedTree>>,
    /// Cumulative Zipf distribution over pool ranks, `cdf.last() == 1.0`.
    cdf: Vec<f64>,
    rng: StdRng,
}

impl LoadGen {
    /// A generator for `config`: `pool_size` sequences of `seq_len`
    /// uniform random trees, all from `config.seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n`, `pool_size` or `seq_len` is zero, or `zipf_s` is
    /// negative or non-finite.
    #[must_use]
    pub fn new(config: LoadConfig) -> Self {
        assert!(config.n >= 1, "need at least one process");
        assert!(config.pool_size >= 1, "need at least one sequence");
        assert!(config.seq_len >= 1, "need at least one tree per sequence");
        assert!(
            config.zipf_s.is_finite() && config.zipf_s >= 0.0,
            "zipf_s must be finite and non-negative"
        );
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pool: Vec<Vec<RootedTree>> = (0..config.pool_size)
            .map(|_| {
                (0..config.seq_len)
                    .map(|_| random::uniform(config.n, &mut rng))
                    .collect()
            })
            .collect();
        let weights: Vec<f64> = (0..config.pool_size)
            .map(|r| 1.0 / ((r + 1) as f64).powf(config.zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        // Guard the tail against rounding: the last bucket catches 1.0.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        LoadGen {
            config,
            pool,
            cdf,
            rng,
        }
    }

    /// The generator's shape.
    #[must_use]
    pub fn config(&self) -> &LoadConfig {
        &self.config
    }

    /// The sequence pool, rank order (rank 0 is the hottest).
    #[must_use]
    pub fn pool(&self) -> &[Vec<RootedTree>] {
        &self.pool
    }

    /// Draws a pool rank from the Zipf distribution.
    pub fn sample_rank(&mut self) -> usize {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        // First rank whose CDF covers u.
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.pool.len() - 1)
    }

    /// Draws one request: a Zipf-ranked sequence under the configured
    /// workload.
    pub fn sample_request(&mut self) -> Request {
        let rank = self.sample_rank();
        Request::BroadcastTime {
            tree_sequence: self.pool[rank].clone(),
            workload: self.config.workload.clone(),
            rounds: self.config.rounds,
        }
    }

    /// Draws `count` requests.
    pub fn requests(&mut self, count: usize) -> Vec<Request> {
        (0..count).map(|_| self.sample_request()).collect()
    }

    /// Serves `config.requests` requests serially on `server`, capturing
    /// per-request latency; `hits`/`misses` are the change in the
    /// server's counters, so they cover exactly this run.
    pub fn run_serial(&mut self, server: &Server) -> LoadReport {
        let count = self.config.requests;
        let before = server.stats();
        let mut latencies: Vec<u64> = Vec::with_capacity(count);
        // Requests are sampled one at a time — marshalling a big request
        // (cloning `seq_len` trees) happens outside the timed call, and
        // the run never holds more than one request in memory.
        for _ in 0..count {
            let request = self.sample_request();
            let start = Instant::now();
            let response = server.serve(&request);
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            assert!(
                response.report().is_some(),
                "load generator produced an invalid request"
            );
            latencies.push(ns);
        }
        let elapsed_ns: u64 = latencies.iter().sum();
        let after = server.stats();
        latencies.sort_unstable();
        let hits = after.hits - before.hits;
        let misses = after.misses - before.misses;
        let lookups = hits + misses;
        LoadReport {
            requests: count as u64,
            n: self.config.n as u64,
            pool_size: self.config.pool_size as u64,
            seq_len: self.config.seq_len as u64,
            zipf_s: self.config.zipf_s,
            elapsed_ns,
            qps: if elapsed_ns == 0 {
                0.0
            } else {
                count as f64 / (elapsed_ns as f64 / 1e9)
            },
            p50_ns: percentile(&latencies, 0.50),
            p99_ns: percentile(&latencies, 0.99),
            p999_ns: percentile(&latencies, 0.999),
            hits,
            misses,
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        }
    }
}

/// The `q`-quantile of an ascending latency list (nearest-rank, 0 for an
/// empty list).
#[must_use]
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_server::{CacheConfig, ServerConfig};

    fn server() -> Server {
        Server::new(ServerConfig {
            workers: 1,
            cache: CacheConfig::default(),
        })
    }

    fn small_config() -> LoadConfig {
        LoadConfig {
            n: 12,
            pool_size: 8,
            seq_len: 3,
            requests: 200,
            zipf_s: 1.2,
            seed: 42,
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        }
    }

    #[test]
    fn zipf_skew_prefers_low_ranks() {
        let mut lg = LoadGen::new(small_config());
        let mut counts = vec![0usize; lg.config().pool_size];
        for _ in 0..4000 {
            counts[lg.sample_rank()] += 1;
        }
        assert!(
            counts[0] > counts[lg.config().pool_size - 1] * 2,
            "rank 0 must dominate the tail: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 4000);
    }

    #[test]
    fn zero_skew_is_roughly_uniform() {
        let mut lg = LoadGen::new(LoadConfig {
            zipf_s: 0.0,
            ..small_config()
        });
        let mut counts = vec![0usize; lg.config().pool_size];
        for _ in 0..4000 {
            counts[lg.sample_rank()] += 1;
        }
        assert!(
            counts.iter().all(|&c| c > 250),
            "uniform sampling must touch every rank substantially: {counts:?}"
        );
    }

    #[test]
    fn identical_seeds_replay_identical_streams() {
        let mut a = LoadGen::new(small_config());
        let mut b = LoadGen::new(small_config());
        assert_eq!(a.requests(50), b.requests(50));
    }

    #[test]
    fn serial_runs_report_latency_and_cache_outcomes() {
        let mut lg = LoadGen::new(small_config());
        let report = lg.run_serial(&server());
        assert_eq!(report.requests, 200);
        assert!(report.qps > 0.0);
        assert!(report.p50_ns <= report.p99_ns && report.p99_ns <= report.p999_ns);
        assert!(
            report.hit_rate > 0.5,
            "a skewed mix over 8 sequences must run mostly warm: {report:?}"
        );
        let text = serde::json::to_string_pretty(&report);
        let back: LoadReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn consecutive_runs_count_only_their_own_lookups() {
        let shared = server();
        let mut lg = LoadGen::new(small_config());
        let first = lg.run_serial(&shared);
        // The second run's stream, replayed on a fresh server: a request
        // looks the cache up once per round whether it hits or misses.
        let mut replay = lg.clone();
        let second = lg.run_serial(&shared);
        let fresh = replay.run_serial(&server());
        assert_eq!(second.hits + second.misses, fresh.hits + fresh.misses);
        assert!(second.hits >= fresh.hits, "the shared server is warmer");
        let total = shared.stats();
        assert_eq!(total.hits, first.hits + second.hits);
        assert_eq!(total.misses, first.misses + second.misses);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.0), 1);
        assert_eq!(percentile(&sorted, 0.50), 51);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
