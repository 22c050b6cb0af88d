//! The batched request/response API: plain serializable data types.
//!
//! Three request classes cover the ROADMAP's serving surface:
//!
//! * [`Request::BroadcastTime`] — workload completion time over a tree
//!   sequence, answered from the prefix-product cache;
//! * [`Request::ScenarioReplay`] — a recorded fault schedule replayed
//!   bit-identically on the scenario engine (faults break the pure
//!   product structure, so these bypass the cache by design);
//! * [`Request::AdversaryPlan`] — a beam-search plan job over a
//!   candidate pool and objective, its schedule replayed through the
//!   cache for the reported completion time.
//!
//! Everything here derives the vendored `serde` shim, so requests and
//! responses cross a wire (or land in bench artifacts) as JSON.

use treecast_adversary::{
    MinDisseminated, MinMaxReach, MinNearWinners, MinNewEdges, MinSumReach, Objective,
};
use treecast_core::scenario::RoundFaults;
use treecast_core::workload::{
    Broadcast, Gossip, KBroadcast, KSourceBroadcast, Workload, WorkloadReport,
};
use treecast_trees::RootedTree;

/// Which workload a query measures. A serializable mirror of the
/// [`Workload`] implementations.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadSpec {
    /// Single-source broadcast.
    Broadcast,
    /// `k` tokens disseminated.
    KBroadcast {
        /// The dissemination threshold (`1 ≤ k ≤ n`).
        k: usize,
    },
    /// All tokens disseminated.
    Gossip,
    /// Only the named sources' tokens exist and must all disseminate.
    KSourceBroadcast {
        /// The source nodes (distinct, `< n`).
        sources: Vec<usize>,
    },
}

impl WorkloadSpec {
    /// The executable workload, if the spec is valid for `n` processes.
    ///
    /// # Errors
    ///
    /// A message naming the invalid parameter (`k = 0`, `k > n`, duplicate
    /// or out-of-range sources) — returned as [`Response::Error`] instead of
    /// panicking inside a worker thread.
    pub fn workload(&self, n: usize) -> Result<Box<dyn Workload + Send + Sync>, String> {
        match self {
            WorkloadSpec::Broadcast => Ok(Box::new(Broadcast)),
            WorkloadSpec::KBroadcast { k } => {
                if *k == 0 {
                    return Err("k-broadcast needs k >= 1".into());
                }
                // At most `n` tokens exist, so a larger `k` never completes.
                if *k > n {
                    return Err(format!("k-broadcast needs k <= n (got k = {k}, n = {n})"));
                }
                Ok(Box::new(KBroadcast::new(*k)))
            }
            WorkloadSpec::Gossip => Ok(Box::new(Gossip)),
            WorkloadSpec::KSourceBroadcast { sources } => {
                if sources.is_empty() {
                    return Err("k-source broadcast needs at least one source".into());
                }
                let mut seen = sources.clone();
                seen.sort_unstable();
                seen.dedup();
                if seen.len() != sources.len() {
                    return Err("duplicate source node".into());
                }
                if let Some(&s) = sources.iter().find(|&&s| s >= n) {
                    return Err(format!("source {s} out of range for n = {n}"));
                }
                Ok(Box::new(KSourceBroadcast::new(sources.clone())))
            }
        }
    }
}

/// A recorded scenario: trees plus the per-round fault log, replayable
/// bit-identically ([`treecast_core::scenario::FaultSchedule::replay`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Schedule {
    /// The per-round trees (`SequenceSource` semantics: the last one
    /// repeats if the run outlives the list).
    pub trees: Vec<RootedTree>,
    /// The fault log, one entry per round (quiet beyond the end).
    pub faults: Vec<RoundFaults>,
    /// The workload to measure.
    pub workload: WorkloadSpec,
    /// Round cap; 0 means the engine default (`8n + 16`). A cap past the
    /// server's work budget for `n` is an error.
    pub rounds: u64,
}

/// Which candidate pool a plan job searches over.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PoolSpec {
    /// The structured family pool (paths, stars, brooms, …).
    Structured,
    /// `count` seeded uniform random trees per round.
    Sampled {
        /// Candidates per round.
        count: usize,
        /// RNG seed (plans stay deterministic per seed).
        seed: u64,
    },
    /// Every rooted tree on `n` nodes — exact, only sensible for `n ≤ 6`.
    Exhaustive,
}

/// Which objective ranks the beam's states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ObjectiveSpec {
    /// Minimize newly added product edges.
    MinNewEdges,
    /// Minimize the largest reach set.
    MinMaxReach,
    /// Minimize the total reach.
    MinSumReach,
    /// Minimize nodes close to completing a broadcast.
    MinNearWinners,
    /// Minimize disseminated tokens.
    MinDisseminated,
}

impl ObjectiveSpec {
    /// The objective the spec names, with its default parameters.
    #[must_use]
    pub fn objective(&self) -> Box<dyn Objective + Send + Sync> {
        match self {
            ObjectiveSpec::MinNewEdges => Box::new(MinNewEdges),
            ObjectiveSpec::MinMaxReach => Box::new(MinMaxReach),
            ObjectiveSpec::MinSumReach => Box::new(MinSumReach),
            ObjectiveSpec::MinNearWinners => Box::new(MinNearWinners::default()),
            ObjectiveSpec::MinDisseminated => Box::new(MinDisseminated::default()),
        }
    }

    /// The report label: the objective's own name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.objective().name()
    }
}

/// One query. Batches of these go to `Server::serve_batch`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Request {
    /// Completion time of `workload` over `tree_sequence` (last tree
    /// repeating), answered from the prefix-product cache.
    BroadcastTime {
        /// The per-round trees; all must share `n`.
        tree_sequence: Vec<RootedTree>,
        /// The workload to measure.
        workload: WorkloadSpec,
        /// Round cap; 0 means the engine default (`8n + 16`). A cap past
        /// the server's work budget for `n` is an error.
        rounds: u64,
    },
    /// Bit-identical replay of a recorded fault scenario (uncached — the
    /// scenario engine, exactly as `run_workload_faulty` runs it).
    ScenarioReplay {
        /// The recorded scenario.
        schedule: Schedule,
    },
    /// A beam-search adversary plan, replayed through the cache.
    AdversaryPlan {
        /// Number of processes (`2 ≤ n ≤ 64`).
        n: usize,
        /// Candidate pool.
        pool: PoolSpec,
        /// Ranking objective.
        objective: ObjectiveSpec,
        /// Beam width (`≥ 1`).
        width: usize,
        /// The workload the plan delays.
        workload: WorkloadSpec,
    },
}

/// A plan job's result: the schedule found and its replayed outcome.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlanReport {
    /// Number of processes.
    pub n: usize,
    /// Workload name.
    pub workload: String,
    /// Objective label.
    pub objective: String,
    /// Beam width used.
    pub width: usize,
    /// The planned schedule.
    pub schedule: Vec<RootedTree>,
    /// The schedule replayed against the workload (through the cache).
    pub replay: WorkloadReport,
}

/// One query's answer, index-aligned with the request batch.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Response {
    /// Answer to [`Request::BroadcastTime`].
    BroadcastTime {
        /// The workload report — field-for-field what `run_workload`
        /// returns on the same schedule.
        report: WorkloadReport,
    },
    /// Answer to [`Request::ScenarioReplay`].
    ScenarioReplay {
        /// The scenario engine's report (fault log included).
        report: WorkloadReport,
    },
    /// Answer to [`Request::AdversaryPlan`].
    AdversaryPlan {
        /// The plan and its replay.
        report: PlanReport,
    },
    /// The request was invalid; nothing was executed.
    Error {
        /// What was wrong with it.
        message: String,
    },
}

impl Response {
    /// The workload report inside, if this is a successful query answer.
    #[must_use]
    pub fn report(&self) -> Option<&WorkloadReport> {
        match self {
            Response::BroadcastTime { report } | Response::ScenarioReplay { report } => {
                Some(report)
            }
            Response::AdversaryPlan { report } => Some(&report.replay),
            Response::Error { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treecast_trees::generators;

    #[test]
    fn workload_spec_validates_instead_of_panicking() {
        assert!(WorkloadSpec::KBroadcast { k: 0 }.workload(4).is_err());
        assert!(WorkloadSpec::KSourceBroadcast { sources: vec![] }
            .workload(4)
            .is_err());
        assert!(WorkloadSpec::KSourceBroadcast {
            sources: vec![1, 1]
        }
        .workload(4)
        .is_err());
        assert!(WorkloadSpec::KSourceBroadcast { sources: vec![4] }
            .workload(4)
            .is_err());
        let w = WorkloadSpec::KSourceBroadcast {
            sources: vec![0, 3],
        }
        .workload(4)
        .unwrap();
        assert_eq!(w.name(), "k-source-broadcast(k=2)");
    }

    #[test]
    fn requests_round_trip_through_json() {
        let requests = vec![
            Request::BroadcastTime {
                tree_sequence: vec![generators::path(5), generators::star(5)],
                workload: WorkloadSpec::KBroadcast { k: 2 },
                rounds: 40,
            },
            Request::ScenarioReplay {
                schedule: Schedule {
                    trees: vec![generators::star(4)],
                    faults: vec![RoundFaults {
                        losses: vec![1],
                        root: Some(2),
                        offline: vec![3],
                    }],
                    workload: WorkloadSpec::Gossip,
                    rounds: 0,
                },
            },
            Request::AdversaryPlan {
                n: 5,
                pool: PoolSpec::Sampled { count: 8, seed: 7 },
                objective: ObjectiveSpec::MinDisseminated,
                width: 4,
                workload: WorkloadSpec::Broadcast,
            },
        ];
        let text = serde::json::to_string(&requests);
        let back: Vec<Request> = serde::json::from_str(&text).unwrap();
        assert_eq!(back, requests);
    }

    #[test]
    fn broadcast_time_carries_trees_as_parent_arrays() {
        let request = Request::BroadcastTime {
            tree_sequence: vec![generators::path(3), generators::star_with_center(3, 2)],
            workload: WorkloadSpec::Gossip,
            rounds: 0,
        };
        let text = serde::json::to_string(&request);
        assert!(
            text.contains(r#""tree_sequence":[[null,0,1],[2,2,null]]"#),
            "{text}"
        );
        let back: Request = serde::json::from_str(&text).unwrap();
        assert_eq!(back, request);
    }

    #[test]
    fn malformed_trees_never_reach_the_engines() {
        let wrap = |tree: &str| {
            format!(
                r#"{{"BroadcastTime":{{"tree_sequence":[{tree}],"workload":"Gossip","rounds":0}}}}"#
            )
        };
        // A 2-cycle beside the root, as a bare parent array and in the
        // old derived form with made-up children and depths.
        for tree in [
            "[null,2,1]",
            r#"{"root":0,"parent":[null,2,1],"children":[[],[2],[1]],"depth":[0,1,1]}"#,
            // A valid path whose children and depths claim height 0.
            r#"{"root":0,"parent":[null,0,1],"children":[[],[],[]],"depth":[0,0,0]}"#,
        ] {
            assert!(
                serde::json::from_str::<Request>(&wrap(tree)).is_err(),
                "{tree}"
            );
        }
        assert!(serde::json::from_str::<Request>(&wrap("[null,0,1]")).is_ok());
    }

    #[test]
    fn objective_names_are_stable() {
        assert_eq!(ObjectiveSpec::MinNewEdges.name(), "min-new-edges");
        assert_eq!(ObjectiveSpec::MinDisseminated.name(), "min-disseminated");
    }
}
