//! `treecast-server`: a batched treecast query engine — std scoped
//! threads over a **sharded prefix-product cache**.
//!
//! The paper's reductions funnel every dissemination question through the
//! prefix products `G(t) = A₁ ∘ … ∘ A_t` of a tree schedule, and real
//! query mixes (benchmark sweeps, adversary tournaments, regression
//! gates) re-ask the same schedules constantly. This crate serves those
//! questions from memoized products instead of recomputing them:
//!
//! * [`fingerprint`] — splitmix64-chained sequence fingerprints over
//!   lane-parallel tree hashes; prefixes
//!   sharing a stem share fingerprints up to the first differing round,
//!   so cache sharing works *across* distinct schedules.
//! * [`cache`] — [`PrefixCache`]: `(fingerprint, round) → Arc<PrefixEntry>`
//!   over N independently locked shards, per-shard intrusive-LRU with
//!   byte-budget eviction. Each entry memoizes the heard-view product
//!   `R(t) = G(t)ᵀ` *and* its disseminated-token mask, so a warm round is
//!   a hash lookup plus a popcount.
//! * [`api`] — the serializable request/response surface:
//!   [`Request::BroadcastTime`] (cached), [`Request::ScenarioReplay`]
//!   (uncached by design — faults break the product structure), and
//!   [`Request::AdversaryPlan`] (beam search, replayed through the
//!   cache).
//! * [`server`] — [`Server::serve`] (serial, deterministic) and
//!   [`Server::serve_batch`]: the calling thread plus `std::thread::scope`
//!   helpers claiming request indices from one atomic counter; no async
//!   runtime anywhere.
//!
//! The companion `treecast-client` crate is a Zipf load generator that
//! drives a [`Server`]; `bench_server` gates the warm/cold throughput
//! ratio in CI.
//!
//! # Examples
//!
//! ```
//! use treecast_server::{CacheConfig, Request, Server, ServerConfig, WorkloadSpec};
//! use treecast_trees::generators;
//!
//! let server = Server::new(ServerConfig::default());
//! let request = Request::BroadcastTime {
//!     tree_sequence: vec![generators::path(16)],
//!     workload: WorkloadSpec::Broadcast,
//!     rounds: 0,
//! };
//! let cold = server.serve(&request);
//! let warm = server.serve(&request); // answered from the cache
//! assert_eq!(cold, warm);
//! assert_eq!(cold.report().unwrap().completion_time, Some(15));
//! assert!(server.stats().hits > 0);
//! ```

pub mod api;
pub mod cache;
pub mod fingerprint;
pub mod server;

pub use api::{ObjectiveSpec, PlanReport, PoolSpec, Request, Response, Schedule, WorkloadSpec};
pub use cache::{CacheConfig, CacheStats, PrefixCache, PrefixEntry};
pub use server::{CachedPrefixes, Server, ServerConfig};

#[cfg(test)]
mod serde_tests {
    use super::*;
    use treecast_core::{run_workload_faulty, SequenceSource, SimulationConfig};
    use treecast_core::{RoundFaults, SeededFaults};
    use treecast_trees::generators;

    #[test]
    fn workload_reports_round_trip_with_fault_logs() {
        let n = 8;
        let mut source = SequenceSource::new(vec![generators::path(n), generators::star(n)]);
        let mut faults = SeededFaults::new(3)
            .with_token_loss(25)
            .with_root_changes(10);
        let report = run_workload_faulty(
            n,
            &mut source,
            &treecast_core::KBroadcast::new(2),
            &mut faults,
            SimulationConfig::for_n(n),
        );
        let text = serde::json::to_string_pretty(&report);
        let back: treecast_core::WorkloadReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn responses_round_trip_through_json() {
        let server = Server::new(ServerConfig {
            workers: 1,
            cache: CacheConfig::default(),
        });
        let responses = server.serve_batch(&[
            Request::BroadcastTime {
                tree_sequence: vec![generators::star(6)],
                workload: WorkloadSpec::Gossip,
                rounds: 0,
            },
            Request::ScenarioReplay {
                schedule: Schedule {
                    trees: vec![generators::path(6)],
                    faults: vec![RoundFaults {
                        losses: vec![2],
                        root: None,
                        offline: vec![],
                    }],
                    workload: WorkloadSpec::Broadcast,
                    rounds: 12,
                },
            },
            Request::BroadcastTime {
                tree_sequence: vec![],
                workload: WorkloadSpec::Broadcast,
                rounds: 0,
            },
        ]);
        let text = serde::json::to_string(&responses);
        let back: Vec<Response> = serde::json::from_str(&text).unwrap();
        assert_eq!(back, responses);
        assert!(matches!(back[2], Response::Error { .. }));
    }

    #[test]
    fn cache_stats_serialize_for_bench_artifacts() {
        let stats = CacheStats {
            hits: 10,
            misses: 2,
            entries: 4,
            bytes: 4096,
        };
        let text = serde::json::to_string(&stats);
        let back: CacheStats = serde::json::from_str(&text).unwrap();
        assert_eq!(back, stats);
    }
}
