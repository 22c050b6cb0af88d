//! The query engine: request validation, the cache-backed
//! [`PrefixProvider`], and the scoped-thread worker pool.
//!
//! `serve` answers one request on the calling thread (deterministic —
//! the bench's exact cells come from this path); `serve_batch` fans a
//! batch over `std::thread::scope` workers draining a shared
//! [`JobQueue`]. All workers share one [`PrefixCache`], so a batch with
//! repeated or stem-sharing schedules pays each prefix composition once
//! across the whole pool.

use std::sync::{Arc, Mutex};

use treecast_adversary::{
    beam_search_workload_plan, BeamOptions, CandidateGen, ExhaustivePool, MinDisseminated,
    MinMaxReach, MinNearWinners, MinNewEdges, MinSumReach, SampledPool, SearchState,
    StructuredPool, TrackedSearchState,
};
use treecast_bitmatrix::BoolMatrix;
use treecast_core::prefix::{run_workload_prefixes, PrefixProvider, PrefixRound};
use treecast_core::{
    run_workload_faulty, BroadcastState, FaultSchedule, SequenceSource, SimulationConfig, Workload,
};
use treecast_trees::RootedTree;

use crate::api::{ObjectiveSpec, PlanReport, PoolSpec, Request, Response, WorkloadSpec};
use crate::cache::{CacheConfig, CacheStats, PrefixCache, PrefixEntry};
use crate::fingerprint::{chain, tree_hash, SEED};
use crate::queue::JobQueue;

/// Exhaustive pools enumerate all `n^(n-1)`-ish rooted trees per round;
/// past this they are a denial-of-service request, not a query.
const EXHAUSTIVE_MAX_N: usize = 6;

/// Server geometry: worker threads and cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads for [`Server::serve_batch`] (capped at the batch
    /// size; 1 degenerates to serial serving).
    pub workers: usize,
    /// Prefix-product cache geometry; [`CacheConfig::disabled`] is the
    /// uncached baseline.
    pub cache: CacheConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            cache: CacheConfig::default(),
        }
    }
}

/// The batched treecast query engine.
pub struct Server {
    workers: usize,
    cache: PrefixCache,
}

impl Server {
    /// A server with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers == 0` or `config.cache.shards == 0`.
    #[must_use]
    pub fn new(config: ServerConfig) -> Self {
        assert!(config.workers >= 1, "need at least one worker");
        Server {
            workers: config.workers,
            cache: PrefixCache::new(config.cache),
        }
    }

    /// The shared prefix-product cache.
    #[must_use]
    pub fn cache(&self) -> &PrefixCache {
        &self.cache
    }

    /// Current cache counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Answers one request on the calling thread. Invalid requests come
    /// back as [`Response::Error`]; this never panics on bad input.
    #[must_use]
    pub fn serve(&self, request: &Request) -> Response {
        match self.handle(request) {
            Ok(response) => response,
            Err(message) => Response::Error { message },
        }
    }

    /// Answers a batch over the worker pool, responses index-aligned
    /// with the requests. The pool is `min(workers, batch len)` scoped
    /// threads draining a shared FIFO; a single worker (or an empty
    /// batch) short-circuits to the serial path.
    #[must_use]
    pub fn serve_batch(&self, requests: &[Request]) -> Vec<Response> {
        let workers = self.workers.min(requests.len());
        if workers <= 1 {
            return requests.iter().map(|r| self.serve(r)).collect();
        }
        let queue: JobQueue<(usize, &Request)> = JobQueue::new();
        let results: Vec<Mutex<Option<Response>>> =
            requests.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| {
                    while let Some((i, request)) = queue.pop() {
                        let response = self.serve(request);
                        // analyze: allow(panic): a poisoned slot means another
                        // worker died mid-batch; propagate the abort.
                        *results[i].lock().expect("result slot poisoned") = Some(response);
                    }
                });
            }
            for job in requests.iter().enumerate() {
                queue.push(job);
            }
            queue.close();
        });
        results
            .into_iter()
            .map(|slot| {
                // Both expects are worker-death signals: a poisoned slot or a
                // missing answer means a worker panicked and the batch is lost.
                slot.into_inner()
                    .expect("result slot poisoned") // analyze: allow(panic): worker died mid-batch
                    .expect("every job is answered") // analyze: allow(panic): worker died mid-batch
            })
            .collect()
    }

    fn handle(&self, request: &Request) -> Result<Response, String> {
        match request {
            Request::BroadcastTime {
                tree_sequence,
                workload,
                rounds,
            } => {
                let n = validate_sequence(tree_sequence)?;
                let workload = workload.workload(n)?;
                let mut prefixes = CachedPrefixes::new(tree_sequence, &self.cache);
                let report =
                    run_workload_prefixes(&mut prefixes, &*workload, config_for(n, *rounds));
                Ok(Response::BroadcastTime { report })
            }
            Request::ScenarioReplay { schedule } => {
                let n = validate_sequence(&schedule.trees)?;
                let workload = schedule.workload.workload(n)?;
                for (t, faults) in schedule.faults.iter().enumerate() {
                    faults
                        .check(n)
                        .map_err(|e| format!("round {}: {e}", t + 1))?;
                }
                // Faults break the pure product structure, so replays run
                // on the scenario engine, bit-identical to a direct
                // `run_workload_faulty` call — never through the cache.
                let mut source = SequenceSource::new(schedule.trees.clone());
                let mut faults = FaultSchedule::replay(&schedule.faults);
                let report = run_workload_faulty(
                    n,
                    &mut source,
                    &*workload,
                    &mut faults,
                    config_for(n, schedule.rounds),
                );
                Ok(Response::ScenarioReplay { report })
            }
            Request::AdversaryPlan {
                n,
                pool,
                objective,
                width,
                workload,
            } => {
                let n = *n;
                if n < 2 {
                    return Err("adversary planning needs n >= 2".into());
                }
                if *width == 0 {
                    return Err("beam width must be >= 1".into());
                }
                let executable = workload.workload(n)?;
                let mut pool = build_pool(pool, n)?;
                let options = BeamOptions::for_n(n).with_width(*width);
                // `k`-source workloads search over the batched tracked
                // state; everything else over the full product state.
                let schedule = match workload {
                    WorkloadSpec::KSourceBroadcast { sources } => plan_with_objective(
                        &TrackedSearchState::new(n, sources),
                        &mut *pool,
                        *objective,
                        &*executable,
                        options,
                    ),
                    _ => plan_with_objective(
                        &BroadcastState::new(n),
                        &mut *pool,
                        *objective,
                        &*executable,
                        options,
                    ),
                };
                if schedule.is_empty() {
                    return Err("planner returned an empty schedule".into());
                }
                let mut prefixes = CachedPrefixes::new(&schedule, &self.cache);
                let replay =
                    run_workload_prefixes(&mut prefixes, &*executable, SimulationConfig::for_n(n));
                Ok(Response::AdversaryPlan {
                    report: PlanReport {
                        n,
                        workload: executable.name(),
                        objective: objective.name().to_string(),
                        width: *width,
                        schedule,
                        replay,
                    },
                })
            }
        }
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers)
            .field("cache", &self.cache)
            .finish()
    }
}

fn validate_sequence(trees: &[RootedTree]) -> Result<usize, String> {
    let Some(first) = trees.first() else {
        return Err("empty tree sequence".into());
    };
    let n = first.n();
    if trees.iter().any(|t| t.n() != n) {
        return Err("trees in a sequence must share n".into());
    }
    Ok(n)
}

fn config_for(n: usize, rounds: u64) -> SimulationConfig {
    if rounds == 0 {
        SimulationConfig::for_n(n)
    } else {
        SimulationConfig::for_n(n).with_max_rounds(rounds)
    }
}

fn build_pool(spec: &PoolSpec, n: usize) -> Result<Box<dyn CandidateGen>, String> {
    match spec {
        PoolSpec::Structured => Ok(Box::new(StructuredPool::new())),
        PoolSpec::Sampled { count, seed } => {
            if *count == 0 {
                return Err("sampled pool needs count >= 1".into());
            }
            Ok(Box::new(SampledPool::new(*count, *seed)))
        }
        PoolSpec::Exhaustive => {
            if n > EXHAUSTIVE_MAX_N {
                return Err(format!(
                    "exhaustive pool is limited to n <= {EXHAUSTIVE_MAX_N} (got n = {n})"
                ));
            }
            Ok(Box::new(ExhaustivePool::new(n)))
        }
    }
}

/// The objective dispatch: `Objective<S>` is generic over the state, so
/// the spec fans out to concrete objective values here.
fn plan_with_objective<S: SearchState>(
    start: &S,
    pool: &mut dyn CandidateGen,
    objective: ObjectiveSpec,
    workload: &(dyn Workload + Send + Sync),
    options: BeamOptions,
) -> Vec<RootedTree> {
    match objective {
        ObjectiveSpec::MinNewEdges => {
            beam_search_workload_plan(start, pool, &MinNewEdges, workload, options)
        }
        ObjectiveSpec::MinMaxReach => {
            beam_search_workload_plan(start, pool, &MinMaxReach, workload, options)
        }
        ObjectiveSpec::MinSumReach => {
            beam_search_workload_plan(start, pool, &MinSumReach, workload, options)
        }
        ObjectiveSpec::MinNearWinners => {
            beam_search_workload_plan(start, pool, &MinNearWinners::default(), workload, options)
        }
        ObjectiveSpec::MinDisseminated => {
            beam_search_workload_plan(start, pool, &MinDisseminated::default(), workload, options)
        }
    }
}

/// A [`PrefixProvider`] that answers each round from the shared
/// [`PrefixCache`] when warm, and composes + publishes the product when
/// cold.
///
/// The provider chains the sequence fingerprint incrementally
/// (`fp_t = splitmix64(fp_{t-1} ^ tree_hash(A_t))`, with the last tree
/// repeating per `SequenceSource` semantics), so schedules sharing a stem
/// share cache entries up to the first differing round — a warm round is
/// one shard lookup plus the memoized mask, never a composition.
pub struct CachedPrefixes<'a> {
    n: usize,
    round: u64,
    /// Borrowed from the request — trees are never cloned on the serving
    /// path (a `RootedTree` clone is `n` nested child-list allocations,
    /// which would dwarf a warm round).
    trees: &'a [RootedTree],
    /// `tree_hash` of each tree, memoized lazily — a query that completes
    /// at round `t` never pays for hashing the trees past `t`.
    tree_hashes: Vec<Option<u64>>,
    /// The chained fingerprint of the prefix served so far.
    fingerprint: u64,
    cache: &'a PrefixCache,
    /// `R(round)`; `None` is the un-materialized identity `R(0)` (a
    /// round-1 miss composes `A₁ᵀ ∘ I = A₁ᵀ` directly, so the warm path
    /// never allocates an `n × n` identity).
    current: Option<Arc<PrefixEntry>>,
    /// Retained buffer for the transposed round matrix `A_tᵀ`.
    round_t: BoolMatrix,
    label: String,
}

impl<'a> CachedPrefixes<'a> {
    /// A provider over `trees` backed by `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or the trees disagree on `n`.
    pub fn new(trees: &'a [RootedTree], cache: &'a PrefixCache) -> Self {
        assert!(!trees.is_empty(), "need at least one tree");
        let n = trees[0].n();
        for t in trees {
            assert_eq!(t.n(), n, "all trees must have the same node count");
        }
        let label = format!("sequence(len={})", trees.len());
        CachedPrefixes {
            n,
            round: 0,
            tree_hashes: vec![None; trees.len()],
            trees,
            fingerprint: SEED,
            cache,
            current: None,
            round_t: BoolMatrix::zeros(n),
            label,
        }
    }

    /// Overrides the report label.
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }
}

impl PrefixProvider for CachedPrefixes<'_> {
    fn n(&self) -> usize {
        self.n
    }

    fn next_prefix(&mut self) -> Option<PrefixRound<'_>> {
        let idx = (self.round as usize).min(self.trees.len() - 1);
        let hash = *self.tree_hashes[idx].get_or_insert_with(|| tree_hash(&self.trees[idx]));
        let next_fp = chain(self.fingerprint, hash);
        let next_round = self.round + 1;
        let entry = match self.cache.get(next_fp, next_round) {
            Some(entry) => entry,
            None => {
                // Cold: one sparse left-composition A_{t+1}ᵀ ∘ R(t), then
                // publish so every later query of this prefix is warm.
                let tree = &self.trees[idx];
                self.round_t.clear();
                self.round_t.add_self_loops();
                for y in 0..self.n {
                    if let Some(p) = tree.parent(y) {
                        self.round_t.set(y, p, true);
                    }
                }
                let next = match &self.current {
                    Some(prev) => {
                        let mut next = BoolMatrix::zeros(self.n);
                        self.round_t.compose_into(prev.heard(), &mut next);
                        next
                    }
                    // Round 1 from the identity: A₁ᵀ ∘ I = A₁ᵀ.
                    None => self.round_t.clone(),
                };
                let entry = Arc::new(PrefixEntry::new(next));
                self.cache.insert(next_fp, next_round, Arc::clone(&entry));
                entry
            }
        };
        self.fingerprint = next_fp;
        self.round = next_round;
        let current = self.current.insert(entry);
        Some(PrefixRound {
            round: self.round,
            tree: &self.trees[idx],
            heard: current.heard(),
            disseminated: current.disseminated(),
        })
    }

    fn name(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_core::prefix::ComposedPrefixes;
    use treecast_core::{run_workload, Gossip, KBroadcast, RoundFaults, SeededFaults};
    use treecast_trees::generators;

    use crate::api::Schedule;

    fn rotating_stars(n: usize) -> Vec<RootedTree> {
        (0..n).map(|c| generators::star_with_center(n, c)).collect()
    }

    fn server(cache: CacheConfig) -> Server {
        Server::new(ServerConfig { workers: 4, cache })
    }

    #[test]
    fn broadcast_time_matches_the_direct_engine() {
        let n = 8;
        let s = server(CacheConfig::default());
        let request = Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let mut engine = SequenceSource::new(rotating_stars(n));
        let want = run_workload(n, &mut engine, &Gossip, SimulationConfig::for_n(n));
        let Response::BroadcastTime { report } = s.serve(&request) else {
            panic!("expected a broadcast-time response");
        };
        assert_eq!(report, want);
    }

    #[test]
    fn warm_requests_hit_the_cache() {
        let n = 8;
        let s = server(CacheConfig::default());
        let request = Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload: WorkloadSpec::KBroadcast { k: 3 },
            rounds: 0,
        };
        let cold = s.serve(&request);
        let after_cold = s.stats();
        assert_eq!(after_cold.hits, 0, "first pass is all misses");
        assert!(after_cold.misses > 0);
        let warm = s.serve(&request);
        assert_eq!(warm, cold);
        let after_warm = s.stats();
        assert_eq!(
            after_warm.misses, after_cold.misses,
            "second pass composes nothing"
        );
        assert_eq!(after_warm.hits, after_cold.misses);
    }

    #[test]
    fn stem_sharing_sequences_share_entries() {
        let n = 6;
        let s = server(CacheConfig::default());
        let stem = rotating_stars(n);
        let mut other = stem.clone();
        other.push(generators::path(n));
        let first = Request::BroadcastTime {
            tree_sequence: stem,
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let second = Request::BroadcastTime {
            tree_sequence: other,
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let _ = s.serve(&first);
        let cold = s.stats();
        let _ = s.serve(&second);
        let warm = s.stats();
        assert!(
            warm.hits > cold.hits,
            "the shared stem must come from the cache: {warm:?}"
        );
    }

    #[test]
    fn cached_provider_matches_the_uncached_one() {
        let n = 7;
        let cache = PrefixCache::new(CacheConfig::default());
        for trees in [rotating_stars(n), vec![generators::path(n)]] {
            let cfg = SimulationConfig::for_n(n);
            let mut direct = ComposedPrefixes::new(trees.clone());
            let want = run_workload_prefixes(&mut direct, &Gossip, cfg);
            // Twice: the cold pass and the warm pass must agree exactly.
            for pass in 0..2 {
                let mut cached = CachedPrefixes::new(&trees, &cache);
                let got = run_workload_prefixes(&mut cached, &Gossip, cfg);
                assert_eq!(got, want, "pass {pass}");
            }
        }
    }

    #[test]
    fn scenario_replay_is_bit_identical_to_the_scenario_engine() {
        let n = 8;
        let s = server(CacheConfig::default());
        // Record a seeded cocktail's log, then replay it via the server.
        let mut source = SequenceSource::new(rotating_stars(n));
        let mut faults = SeededFaults::new(0xFA)
            .with_token_loss(20)
            .with_dropout(15, 2)
            .with_root_changes(10);
        let recorded = run_workload_faulty(
            n,
            &mut source,
            &KBroadcast::new(3),
            &mut faults,
            SimulationConfig::for_n(n),
        );
        let request = Request::ScenarioReplay {
            schedule: Schedule {
                trees: rotating_stars(n),
                faults: recorded.fault_log.clone(),
                workload: WorkloadSpec::KBroadcast { k: 3 },
                rounds: 0,
            },
        };
        let Response::ScenarioReplay { report } = s.serve(&request) else {
            panic!("expected a scenario-replay response");
        };
        assert_eq!(report, recorded);
        assert!(!report.fault_log.is_empty(), "the cocktail must have fired");
    }

    #[test]
    fn quiet_fault_schedules_replay_too() {
        let n = 5;
        let s = server(CacheConfig::default());
        let request = Request::ScenarioReplay {
            schedule: Schedule {
                trees: vec![generators::path(n)],
                faults: vec![RoundFaults::default(); 3],
                workload: WorkloadSpec::Broadcast,
                rounds: 0,
            },
        };
        let Response::ScenarioReplay { report } = s.serve(&request) else {
            panic!("expected a scenario-replay response");
        };
        assert_eq!(report.completion_time, Some(n as u64 - 1));
    }

    /// A replay whose fault names a node `>= n`, once per fault field.
    fn out_of_range_replays(n: usize) -> Vec<Request> {
        let bad = [
            RoundFaults {
                losses: vec![n],
                ..RoundFaults::default()
            },
            RoundFaults {
                root: Some(n),
                ..RoundFaults::default()
            },
            RoundFaults {
                offline: vec![1, n + 3],
                ..RoundFaults::default()
            },
        ];
        bad.into_iter()
            .map(|fault| Request::ScenarioReplay {
                schedule: Schedule {
                    trees: vec![generators::path(n)],
                    faults: vec![RoundFaults::default(), fault],
                    workload: WorkloadSpec::Broadcast,
                    rounds: 0,
                },
            })
            .collect()
    }

    #[test]
    fn out_of_range_replay_faults_are_errors_not_panics() {
        let n = 4;
        let s = server(CacheConfig::default());
        for request in out_of_range_replays(n) {
            let response = s.serve(&request);
            assert!(
                matches!(&response, Response::Error { message } if message.contains("out of range")),
                "{response:?}"
            );
        }
    }

    #[test]
    fn a_bad_replay_does_not_abort_its_batch() {
        let n = 4;
        let s = server(CacheConfig::default());
        let good = Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let mut batch = vec![good.clone(), good.clone()];
        batch.insert(1, out_of_range_replays(n).remove(0));
        let responses = s.serve_batch(&batch);
        assert_eq!(responses.len(), 3, "every slot is answered");
        assert_eq!(responses[0], s.serve(&good));
        assert!(matches!(responses[1], Response::Error { .. }));
        assert_eq!(responses[2], responses[0]);
    }

    #[test]
    fn adversary_plans_beat_the_static_path() {
        let n = 8;
        let s = server(CacheConfig::default());
        let request = Request::AdversaryPlan {
            n,
            pool: PoolSpec::Structured,
            objective: ObjectiveSpec::MinNearWinners,
            width: 8,
            workload: WorkloadSpec::Broadcast,
        };
        let Response::AdversaryPlan { report } = s.serve(&request) else {
            panic!("expected a plan response");
        };
        assert_eq!(report.schedule.len() as u64, report.replay.rounds);
        let t = report.replay.completion_time.expect("plans complete");
        // The structured pool contains the path, so a searched plan is at
        // least as slow as the static path's n − 1.
        assert!(t >= n as u64 - 1, "plan completed suspiciously fast: {t}");
        assert!(report.replay.fault_log.is_empty());
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let n = 6;
        let request = Request::AdversaryPlan {
            n,
            pool: PoolSpec::Sampled { count: 12, seed: 9 },
            objective: ObjectiveSpec::MinDisseminated,
            width: 6,
            workload: WorkloadSpec::KBroadcast { k: 2 },
        };
        let a = server(CacheConfig::default()).serve(&request);
        let b = server(CacheConfig::disabled()).serve(&request);
        assert_eq!(a, b, "plan and replay are cache-independent");
    }

    #[test]
    fn invalid_requests_become_error_responses() {
        let s = server(CacheConfig::default());
        let bad = vec![
            Request::BroadcastTime {
                tree_sequence: vec![],
                workload: WorkloadSpec::Broadcast,
                rounds: 0,
            },
            Request::BroadcastTime {
                tree_sequence: vec![generators::path(4), generators::path(5)],
                workload: WorkloadSpec::Broadcast,
                rounds: 0,
            },
            Request::BroadcastTime {
                tree_sequence: vec![generators::path(4)],
                workload: WorkloadSpec::KBroadcast { k: 0 },
                rounds: 0,
            },
            Request::AdversaryPlan {
                n: 1,
                pool: PoolSpec::Structured,
                objective: ObjectiveSpec::MinNewEdges,
                width: 4,
                workload: WorkloadSpec::Broadcast,
            },
            Request::AdversaryPlan {
                n: 12,
                pool: PoolSpec::Exhaustive,
                objective: ObjectiveSpec::MinNewEdges,
                width: 4,
                workload: WorkloadSpec::Broadcast,
            },
            Request::AdversaryPlan {
                n: 6,
                pool: PoolSpec::Structured,
                objective: ObjectiveSpec::MinNewEdges,
                width: 0,
                workload: WorkloadSpec::Broadcast,
            },
        ];
        for (i, request) in bad.iter().enumerate() {
            assert!(
                matches!(s.serve(request), Response::Error { .. }),
                "request {i} must be rejected"
            );
        }
    }

    #[test]
    fn batches_are_index_aligned_with_serial_serving() {
        let n = 7;
        let requests: Vec<Request> = (1..=n)
            .map(|k| Request::BroadcastTime {
                tree_sequence: rotating_stars(n),
                workload: WorkloadSpec::KBroadcast { k },
                rounds: 0,
            })
            .chain(std::iter::once(Request::BroadcastTime {
                tree_sequence: vec![],
                workload: WorkloadSpec::Broadcast,
                rounds: 0,
            }))
            .collect();
        let serial = server(CacheConfig::default());
        let want: Vec<Response> = requests.iter().map(|r| serial.serve(r)).collect();
        let threaded = server(CacheConfig::default());
        let got = threaded.serve_batch(&requests);
        assert_eq!(got, want);
        assert!(matches!(got.last(), Some(Response::Error { .. })));
    }

    #[test]
    fn uncached_server_answers_identically() {
        let n = 9;
        let request = Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let cached = server(CacheConfig::default()).serve(&request);
        let uncached = server(CacheConfig::disabled()).serve(&request);
        assert_eq!(cached, uncached);
    }
}
