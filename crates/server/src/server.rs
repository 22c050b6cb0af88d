//! The query engine: request validation, the cache-backed
//! [`PrefixProvider`], and batch serving on scoped threads.
//!
//! `serve` answers one request on the calling thread (deterministic —
//! the bench's exact cells come from this path); `serve_batch` has the
//! calling thread and scoped helpers claim request indices from one
//! shared counter. All threads share one [`PrefixCache`], so a batch
//! with repeated or stem-sharing schedules pays each prefix step once
//! across the whole batch.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use treecast_adversary::{
    beam_search_workload_plan, BeamOptions, CandidateGen, ExhaustivePool, SampledPool,
    StructuredPool,
};
use treecast_core::prefix::{run_workload_prefixes, PrefixProvider, PrefixRound};
use treecast_core::{
    run_workload_faulty, BroadcastState, FaultSchedule, SequenceSource, SimulationConfig,
};
use treecast_trees::RootedTree;

use crate::api::{PlanReport, PoolSpec, Request, Response};
use crate::cache::{CacheConfig, CacheStats, PrefixCache, PrefixEntry};
use crate::fingerprint::{chain, tree_hash, SEED};

/// Exhaustive pools enumerate all `n^(n-1)`-ish rooted trees per round;
/// past this they are a denial-of-service request, not a query.
const EXHAUSTIVE_MAX_N: usize = 6;

/// Largest `n` an [`Request::AdversaryPlan`] may search: every beam
/// candidate holds an `n × n` state.
const PLAN_MAX_N: usize = 64;

/// The most work one request may ask for, in matrix words: a run's round
/// cap times [`round_words`], or a plan's search (see [`build_pool`]).
/// Admits the default `8n + 16` cap up to n ≈ 1200, and bounds any
/// admitted request to a few seconds.
const REQUEST_WORK_BUDGET: u64 = 1 << 28;

/// Server geometry: worker threads and cache shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Threads that answer a [`Server::serve_batch`], the calling thread
    /// included (capped at the batch size; 1 serves the batch serially).
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
#[derive(Debug)]
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

    /// Answers a batch, responses index-aligned with the requests. The
    /// calling thread and `min(workers, batch len) − 1` scoped helpers
    /// claim request indices from one shared counter, so a one-thread
    /// batch spawns nothing. A helper's panic is re-raised on the caller.
    #[must_use]
    pub fn serve_batch(&self, requests: &[Request]) -> Vec<Response> {
        // The counter only hands out indices; requests are shared
        // read-only and answers come back through `join`, so `Relaxed`
        // publishes nothing it would need to order.
        let next = AtomicUsize::new(0);
        let drain = || {
            let mut answered = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(request) = requests.get(i) else {
                    return answered;
                };
                answered.push((i, self.serve(request)));
            }
        };
        let threads = self.workers.min(requests.len());
        let mut answered = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..threads).map(|_| s.spawn(drain)).collect();
            let mut answered = drain();
            for helper in helpers {
                match helper.join() {
                    Ok(part) => answered.extend(part),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            answered
        });
        // Every index below the batch length was claimed exactly once.
        answered.sort_unstable_by_key(|&(i, _)| i);
        answered.into_iter().map(|(_, response)| response).collect()
    }

    fn handle(&self, request: &Request) -> Result<Response, String> {
        match request {
            Request::BroadcastTime {
                tree_sequence,
                workload,
                rounds,
            } => {
                let n = validate_sequence(tree_sequence)?;
                let config = config_for(n, *rounds)?;
                let workload = workload.workload(n)?;
                let mut prefixes = CachedPrefixes::new(tree_sequence, &self.cache);
                let report = run_workload_prefixes(&mut prefixes, &*workload, config);
                Ok(Response::BroadcastTime { report })
            }
            Request::ScenarioReplay { schedule } => {
                let n = validate_sequence(&schedule.trees)?;
                let config = config_for(n, schedule.rounds)?;
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
                let report = run_workload_faulty(n, &mut source, &*workload, &mut faults, config);
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
                if !(2..=PLAN_MAX_N).contains(&n) {
                    return Err(format!(
                        "adversary planning needs 2 <= n <= {PLAN_MAX_N} (got n = {n})"
                    ));
                }
                if *width == 0 {
                    return Err("beam width must be >= 1".into());
                }
                let executable = workload.workload(n)?;
                let options = BeamOptions::for_n(n).with_width(*width);
                let mut pool = build_pool(pool, n, options)?;
                let schedule = beam_search_workload_plan(
                    n,
                    &mut *pool,
                    &*objective.objective(),
                    &*executable,
                    options,
                );
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

/// The words one round on `n` nodes may touch: the `n × n` prefix step
/// plus a per-round cost (a cache miss allocates, inserts and evicts)
/// worth about 256 rows.
fn round_words(n: usize) -> u64 {
    (n as u64 + 256).saturating_mul(n.div_ceil(64) as u64)
}

/// The run's round cap (`0` = the engine default), rejected when it could
/// exceed [`REQUEST_WORK_BUDGET`].
fn config_for(n: usize, rounds: u64) -> Result<SimulationConfig, String> {
    let config = match rounds {
        0 => SimulationConfig::for_n(n),
        cap => SimulationConfig::for_n(n).with_max_rounds(cap),
    };
    if config.max_rounds.saturating_mul(round_words(n)) > REQUEST_WORK_BUDGET {
        return Err(format!(
            "{} rounds at n = {n} exceed the request work budget",
            config.max_rounds
        ));
    }
    Ok(config)
}

/// The plan's candidate pool, rejected when its search could exceed
/// [`REQUEST_WORK_BUDGET`]: each of up to `max_rounds` generations steps
/// `width × candidates` successor states worth [`round_words`] each. The
/// check comes before the pool is built, so a rejected plan samples nothing.
fn build_pool(
    spec: &PoolSpec,
    n: usize,
    options: BeamOptions,
) -> Result<Box<dyn CandidateGen>, String> {
    let candidates = match spec {
        // Four ordered paths, two brooms and two freeze-leader paths.
        PoolSpec::Structured => 8,
        PoolSpec::Sampled { count: 0, .. } => return Err("sampled pool needs count >= 1".into()),
        PoolSpec::Sampled { count, .. } => *count as u64,
        PoolSpec::Exhaustive if n > EXHAUSTIVE_MAX_N => {
            return Err(format!(
                "exhaustive pool is limited to n <= {EXHAUSTIVE_MAX_N} (got n = {n})"
            ))
        }
        // Cayley: n^(n-1) rooted labelled trees.
        PoolSpec::Exhaustive => (n as u64).pow(n as u32 - 1),
    };
    let work = (options.width as u64)
        .saturating_mul(candidates)
        .saturating_mul(options.max_rounds)
        .saturating_mul(round_words(n));
    if work > REQUEST_WORK_BUDGET {
        return Err(format!(
            "a width-{} plan over {candidates} candidates per round at n = {n} \
             exceeds the request work budget",
            options.width
        ));
    }
    Ok(match spec {
        PoolSpec::Structured => Box::new(StructuredPool::new()),
        PoolSpec::Sampled { count, seed } => Box::new(SampledPool::new(*count, *seed)),
        PoolSpec::Exhaustive => Box::new(ExhaustivePool::new(n)),
    })
}

/// A [`PrefixProvider`] that answers each round from the shared
/// [`PrefixCache`] when warm, and steps + publishes the product when
/// cold.
///
/// The provider chains the sequence fingerprint incrementally
/// (`fp_t = splitmix64(fp_{t-1} ^ tree_hash(A_t))`, with the last tree
/// repeating per `SequenceSource` semantics), so schedules sharing a stem
/// share cache entries up to the first differing round — a warm round is
/// one shard lookup plus the memoized mask, never a product step.
pub struct CachedPrefixes<'a> {
    round: u64,
    /// Borrowed from the request, never cloned: a warm round must not
    /// copy its tree.
    trees: &'a [RootedTree],
    /// `tree_hash` of each tree, memoized lazily — a query that completes
    /// at round `t` never pays for hashing the trees past `t`.
    tree_hashes: Vec<Option<u64>>,
    /// The chained fingerprint of the prefix served so far.
    fingerprint: u64,
    cache: &'a PrefixCache,
    /// The entry holding `R(round)`; `None` before round 1 (a round-1 miss
    /// steps from a fresh identity state).
    current: Option<Arc<PrefixEntry>>,
}

impl<'a> CachedPrefixes<'a> {
    /// A provider over `trees` backed by `cache`.
    ///
    /// # Panics
    ///
    /// Panics if `trees` is empty or the trees disagree on `n`.
    pub fn new(trees: &'a [RootedTree], cache: &'a PrefixCache) -> Self {
        assert!(!trees.is_empty(), "need at least one tree");
        assert!(
            trees.iter().all(|t| t.n() == trees[0].n()),
            "all trees must have the same node count"
        );
        CachedPrefixes {
            round: 0,
            tree_hashes: vec![None; trees.len()],
            trees,
            fingerprint: SEED,
            cache,
            current: None,
        }
    }
}

impl PrefixProvider for CachedPrefixes<'_> {
    fn n(&self) -> usize {
        self.trees[0].n()
    }

    fn next_prefix(&mut self) -> Option<PrefixRound<'_>> {
        let idx = (self.round as usize).min(self.trees.len() - 1);
        let hash = *self.tree_hashes[idx].get_or_insert_with(|| tree_hash(&self.trees[idx]));
        let next_fp = chain(self.fingerprint, hash);
        let next_round = self.round + 1;
        let entry = match self.cache.get(next_fp, next_round) {
            Some(entry) => entry,
            None => {
                // Cold: one tree step `R(t+1)[y] = R(t)[y] ∪ R(t)[parent(y)]`
                // on a copy of `R(t)`, then publish so every later query of
                // this prefix is warm.
                let mut state = match &self.current {
                    Some(prev) => BroadcastState::from_heard(prev.heard().clone(), self.round),
                    None => BroadcastState::new(self.n()),
                };
                state.apply(&self.trees[idx]);
                let entry = Arc::new(PrefixEntry::new(state.into_heard()));
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
        format!("sequence(len={})", self.trees.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use treecast_adversary::{
        MinDisseminated, MinMaxReach, MinNearWinners, MinNewEdges, MinSumReach, Objective,
    };
    use treecast_bitmatrix::BoolMatrix;
    use treecast_core::prefix::ComposedPrefixes;
    use treecast_core::Workload;
    use treecast_core::{run_workload, Gossip, KBroadcast, RoundFaults, SeededFaults};
    use treecast_trees::{generators, random};

    use crate::api::{ObjectiveSpec, Schedule, WorkloadSpec};

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

    /// The miss step before the tree-native one, kept as the oracle: the
    /// transposed round matrix `A_tᵀ + I` left-composed onto `R(t-1)`,
    /// from `R(0) = I`, with the last tree repeating.
    fn reference_prefixes(trees: &[RootedTree], rounds: usize) -> Vec<BoolMatrix> {
        let n = trees[0].n();
        let mut round_t = BoolMatrix::zeros(n);
        let mut current = BoolMatrix::identity(n);
        (0..rounds)
            .map(|t| {
                let tree = &trees[t.min(trees.len() - 1)];
                round_t.clear();
                round_t.add_self_loops();
                for y in 0..n {
                    if let Some(p) = tree.parent(y) {
                        round_t.set(y, p, true);
                    }
                }
                let mut next = BoolMatrix::zeros(n);
                round_t.compose_into(&current, &mut next);
                current = next;
                current.clone()
            })
            .collect()
    }

    #[test]
    fn miss_steps_match_the_round_matrix_composition() {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        for n in [1, 63, 64, 65, 130] {
            let trees: Vec<RootedTree> = (0..5).map(|_| random::uniform(n, &mut rng)).collect();
            let rounds = 2 * trees.len();
            let want = reference_prefixes(&trees, rounds);
            for config in [CacheConfig::disabled(), CacheConfig::default()] {
                let cache = PrefixCache::new(config);
                // The second pass over a cache that keeps entries is all
                // hits; over the disabled cache both passes are all misses.
                for pass in 0..2 {
                    let before = cache.stats();
                    let mut prefixes = CachedPrefixes::new(&trees, &cache);
                    for (t, want) in want.iter().enumerate() {
                        let got = prefixes.next_prefix().expect("schedules repeat forever");
                        assert_eq!(got.round, t as u64 + 1);
                        assert_eq!(got.heard, want, "n = {n}, pass {pass}, round {}", t + 1);
                    }
                    let after = cache.stats();
                    let warm = pass == 1 && config.byte_budget > 0;
                    let (hits, misses) = if warm { (rounds, 0) } else { (0, rounds) };
                    assert_eq!(after.hits - before.hits, hits as u64, "n = {n}");
                    assert_eq!(after.misses - before.misses, misses as u64, "n = {n}");
                }
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

    /// The plan a direct library call makes for `spec` over the
    /// structured pool: the server must answer with exactly this schedule.
    fn library_plan(
        n: usize,
        spec: ObjectiveSpec,
        workload: &(dyn Workload + Send + Sync),
        width: usize,
    ) -> Vec<RootedTree> {
        let objective: &dyn Objective = match spec {
            ObjectiveSpec::MinNewEdges => &MinNewEdges,
            ObjectiveSpec::MinMaxReach => &MinMaxReach,
            ObjectiveSpec::MinSumReach => &MinSumReach,
            ObjectiveSpec::MinNearWinners => &MinNearWinners { slack: 2 },
            ObjectiveSpec::MinDisseminated => &MinDisseminated { slack: 2 },
        };
        let options = BeamOptions::for_n(n).with_width(width);
        beam_search_workload_plan(n, &mut StructuredPool::new(), objective, workload, options)
    }

    #[test]
    fn plans_match_the_library_planner_on_every_workload() {
        let n = 8;
        let width = 4;
        let s = server(CacheConfig::default());
        let objectives = [
            ObjectiveSpec::MinNewEdges,
            ObjectiveSpec::MinMaxReach,
            ObjectiveSpec::MinSumReach,
            ObjectiveSpec::MinNearWinners,
            ObjectiveSpec::MinDisseminated,
        ];
        let workloads = [
            WorkloadSpec::Broadcast,
            WorkloadSpec::KBroadcast { k: 2 },
            WorkloadSpec::KSourceBroadcast {
                sources: vec![0, n / 2],
            },
        ];
        for objective in objectives {
            for spec in &workloads {
                let request = Request::AdversaryPlan {
                    n,
                    pool: PoolSpec::Structured,
                    objective,
                    width,
                    workload: spec.clone(),
                };
                let Response::AdversaryPlan { report } = s.serve(&request) else {
                    panic!("expected a plan response");
                };
                let at = format!("{} on {spec:?}", objective.name());
                let workload = spec.workload(n).unwrap();
                assert_eq!(
                    report.schedule,
                    library_plan(n, objective, &*workload, width),
                    "{at}"
                );
                // A completing plan completes on its last tree; a capped
                // one runs the replay to the engine's round cap.
                let rounds = match report.replay.completion_time {
                    Some(_) => report.schedule.len() as u64,
                    None => SimulationConfig::for_n(n).max_rounds,
                };
                assert_eq!(report.replay.rounds, rounds, "{at}");
            }
        }
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
            // Only n tokens exist, so k = n + 1 used to step to the round
            // cap, publishing a cache entry per round.
            Request::BroadcastTime {
                tree_sequence: rotating_stars(4),
                workload: WorkloadSpec::KBroadcast { k: 5 },
                rounds: 0,
            },
            Request::AdversaryPlan {
                n: 6,
                pool: PoolSpec::Structured,
                objective: ObjectiveSpec::MinNewEdges,
                width: 4,
                workload: WorkloadSpec::KBroadcast { k: 7 },
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
            Request::AdversaryPlan {
                n: 1_000_000,
                pool: PoolSpec::Structured,
                objective: ObjectiveSpec::MinNewEdges,
                width: 1,
                workload: WorkloadSpec::Broadcast,
            },
            // A sampled pool this large used to overflow a capacity, and
            // this wide a beam used to run for minutes.
            Request::AdversaryPlan {
                n: 8,
                pool: PoolSpec::Sampled {
                    count: usize::MAX,
                    seed: 1,
                },
                objective: ObjectiveSpec::MinNewEdges,
                width: 4,
                workload: WorkloadSpec::Broadcast,
            },
            Request::AdversaryPlan {
                n: 64,
                pool: PoolSpec::Sampled {
                    count: 4000,
                    seed: 1,
                },
                objective: ObjectiveSpec::MinNewEdges,
                width: 4000,
                workload: WorkloadSpec::Broadcast,
            },
            // k ≥ 2 never completes on a static tree, so these used to
            // step forever.
            Request::BroadcastTime {
                tree_sequence: vec![generators::path(8)],
                workload: WorkloadSpec::KBroadcast { k: 2 },
                rounds: u64::MAX,
            },
            Request::ScenarioReplay {
                schedule: Schedule {
                    trees: vec![generators::path(8)],
                    faults: vec![],
                    workload: WorkloadSpec::KBroadcast { k: 2 },
                    rounds: u64::MAX,
                },
            },
        ];
        let start = std::time::Instant::now();
        for (i, request) in bad.iter().enumerate() {
            assert!(
                matches!(s.serve(request), Response::Error { .. }),
                "request {i} must be rejected"
            );
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(s.stats().misses, 0, "no rejected request ran");
    }

    #[test]
    fn k_broadcast_with_k_equal_to_n_is_gossip() {
        let n = 6;
        let s = server(CacheConfig::default());
        let request = |workload| Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload,
            rounds: 0,
        };
        let Response::BroadcastTime { report: k_n } =
            s.serve(&request(WorkloadSpec::KBroadcast { k: n }))
        else {
            panic!("k = n is answered");
        };
        let Response::BroadcastTime { report: gossip } = s.serve(&request(WorkloadSpec::Gossip))
        else {
            panic!("gossip is answered");
        };
        assert!(k_n.completion_time.is_some());
        assert_eq!(k_n.completion_time, gossip.completion_time);
    }

    #[test]
    fn requests_inside_the_work_budget_are_answered() {
        let s = server(CacheConfig::default());
        let max_rounds = REQUEST_WORK_BUDGET / round_words(8);
        let request = |rounds| Request::BroadcastTime {
            tree_sequence: vec![generators::path(8)],
            workload: WorkloadSpec::Broadcast,
            rounds,
        };
        let Response::BroadcastTime { report } = s.serve(&request(max_rounds)) else {
            panic!("a cap at the budget is answered");
        };
        assert_eq!(report.completion_time, Some(7));
        assert!(matches!(
            s.serve(&request(max_rounds + 1)),
            Response::Error { .. }
        ));
        // The default cap at the served benchmark size fits the budget.
        let star = Request::BroadcastTime {
            tree_sequence: vec![generators::star(1024)],
            workload: WorkloadSpec::Broadcast,
            rounds: 0,
        };
        assert!(matches!(s.serve(&star), Response::BroadcastTime { .. }));
    }

    #[test]
    fn plans_inside_the_work_budget_are_admitted() {
        let admitted = |pool: PoolSpec, n: usize, width: usize| {
            build_pool(&pool, n, BeamOptions::for_n(n).with_width(width)).is_ok()
        };
        // The plans the server tests and the determinism audit send.
        assert!(admitted(PoolSpec::Structured, 8, 8));
        assert!(admitted(PoolSpec::Sampled { count: 12, seed: 9 }, 6, 6));
        assert!(admitted(PoolSpec::Sampled { count: 12, seed: 7 }, 6, 3));
        // The default width over the structured pool at the largest n.
        assert!(admitted(PoolSpec::Structured, PLAN_MAX_N, 48));
        assert!(admitted(PoolSpec::Exhaustive, 5, 48));
        assert!(!admitted(PoolSpec::Exhaustive, 6, 48));
    }

    #[test]
    fn batches_are_index_aligned_with_serial_serving() {
        let n = 7;
        let valid = |i| Request::BroadcastTime {
            tree_sequence: rotating_stars(n),
            workload: WorkloadSpec::KBroadcast { k: i % n + 1 },
            rounds: 0,
        };
        let invalid = Request::BroadcastTime {
            tree_sequence: vec![],
            workload: WorkloadSpec::Broadcast,
            rounds: 0,
        };
        let serial = server(CacheConfig::default());
        for len in [0, 1, 2, 3, 33] {
            let mut requests: Vec<Request> = (0..len).map(valid).collect();
            // An error request in the middle of every non-empty batch.
            if let Some(middle) = requests.get_mut(len / 2) {
                *middle = invalid.clone();
            }
            let want: Vec<Response> = requests.iter().map(|r| serial.serve(r)).collect();
            for workers in [1, 2, 3, 8] {
                let threaded = Server::new(ServerConfig {
                    workers,
                    cache: CacheConfig::default(),
                });
                let got = threaded.serve_batch(&requests);
                assert_eq!(got, want, "len = {len}, workers = {workers}");
                if len > 0 {
                    assert!(matches!(got[len / 2], Response::Error { .. }));
                }
            }
        }
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
