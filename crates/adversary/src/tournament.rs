//! The adversary tournament: every strategy × every `n`, in parallel.
//!
//! This is the engine behind experiments E1 (Figure 1 landscape), E2
//! (Theorem 3.1 sandwich) and E10 (objective ablation): run a lineup of
//! adversaries over a grid of network sizes, record broadcast (and
//! optionally gossip) times, and render comparison tables.

use treecast_core::{
    bounds, run_workload, Broadcast, Gossip, SimulationConfig, StaticSource, TreeSource, Workload,
};
use treecast_trees::generators;

use crate::beam::BeamSearchAdversary;
use crate::candidates::StructuredPool;
use crate::objectives::{MinMaxReach, MinNearWinners, MinNewEdges, MinSumReach};
use crate::strategies::{
    FamilyRandomAdversary, FreezeLeaderAdversary, GreedyAdversary, UniformRandomAdversary,
};
use crate::survival::{ArborescencePool, SurvivalAdversary};

/// Creates a fresh adversary for a given `(n, seed)` cell of the grid.
pub type AdversaryFactory = Box<dyn Fn(usize, u64) -> Box<dyn TreeSource + Send> + Send + Sync>;

/// A named set of competing adversaries.
pub struct Lineup {
    entries: Vec<(String, AdversaryFactory)>,
}

impl Lineup {
    /// An empty lineup.
    pub fn new() -> Self {
        Lineup {
            entries: Vec::new(),
        }
    }

    /// Adds a named factory; returns `self` for chaining.
    pub fn with(mut self, name: impl Into<String>, factory: AdversaryFactory) -> Self {
        self.entries.push((name.into(), factory));
        self
    }

    /// Names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Number of adversaries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the lineup has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl Default for Lineup {
    fn default() -> Self {
        standard_lineup()
    }
}

/// The full standard lineup used by the experiment harness: baselines
/// (static path, randoms), the structural seesaw, greedy under all four
/// objectives, beam search and the survival adversaries. Depth-2
/// lookahead under `MinMaxReach` is left out: it plays the static path
/// (broadcast at exactly n − 1) at `|pool|²` state applications a round.
pub fn standard_lineup() -> Lineup {
    Lineup::new()
        .with(
            "static-path",
            Box::new(|n, _| Box::new(StaticSource::new(generators::path(n)))),
        )
        .with(
            "static-star",
            Box::new(|n, _| Box::new(StaticSource::new(generators::star(n)))),
        )
        .with(
            "uniform-random",
            Box::new(|_, seed| Box::new(UniformRandomAdversary::new(seed))),
        )
        .with(
            "family-random",
            Box::new(|_, seed| Box::new(FamilyRandomAdversary::new(seed))),
        )
        .with(
            "freeze-leader",
            Box::new(|_, _| Box::new(FreezeLeaderAdversary::new())),
        )
        .with(
            "greedy/new-edges",
            Box::new(|_, _| Box::new(GreedyAdversary::new(StructuredPool::new(), MinNewEdges))),
        )
        .with(
            "greedy/max-reach",
            Box::new(|_, _| Box::new(GreedyAdversary::new(StructuredPool::new(), MinMaxReach))),
        )
        .with(
            "greedy/sum-reach",
            Box::new(|_, _| Box::new(GreedyAdversary::new(StructuredPool::new(), MinSumReach))),
        )
        .with(
            "greedy/near-winners",
            Box::new(|_, _| {
                Box::new(GreedyAdversary::new(
                    StructuredPool::new(),
                    MinNearWinners::default(),
                ))
            }),
        )
        .with(
            "beam-48",
            Box::new(|_, _| Box::new(BeamSearchAdversary::new(StructuredPool::new(), 48))),
        )
        .with(
            "survival-greedy",
            Box::new(|_, _| Box::new(SurvivalAdversary::default())),
        )
        .with(
            "survival-beam-32",
            Box::new(|_, _| Box::new(BeamSearchAdversary::new(ArborescencePool::new(4), 32))),
        )
}

/// One grid cell result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TournamentRow {
    /// Adversary name.
    pub adversary: String,
    /// Network size.
    pub n: usize,
    /// Measured broadcast time.
    pub broadcast_time: u64,
    /// Measured gossip time, when gossip measurement was requested and
    /// reached.
    pub gossip_time: Option<u64>,
    /// `⌈(3n−1)/2⌉ − 2` for this `n`.
    pub lower_bound: u64,
    /// `⌈(1+√2)n − 1⌉` for this `n`.
    pub upper_bound: u64,
}

/// Tournament configuration.
#[derive(Debug, Clone, Copy)]
pub struct TournamentConfig {
    /// Base RNG seed; each cell derives its own.
    pub seed: u64,
    /// Also run to gossip completion (doubles the work).
    pub measure_gossip: bool,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            seed: 0xC0FFEE,
            measure_gossip: false,
            threads: 0,
        }
    }
}

/// Runs every lineup entry on every `n`, in parallel, returning rows
/// sorted by `(n, adversary)`.
///
/// # Panics
///
/// Panics if an adversary fails to broadcast within the engine's safety
/// cap — which would mean a Theorem 3.1 violation or a broken strategy.
pub fn run_tournament(
    lineup: &Lineup,
    ns: &[usize],
    config: TournamentConfig,
) -> Vec<TournamentRow> {
    let jobs: Vec<(usize, usize)> = (0..lineup.entries.len())
        .flat_map(|e| ns.iter().map(move |&n| (e, n)))
        .collect();
    let threads = if config.threads == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(jobs.len().max(1))
    } else {
        config.threads
    };

    let mut rows: Vec<TournamentRow> = Vec::with_capacity(jobs.len());
    std::thread::scope(|scope| {
        let chunks: Vec<Vec<(usize, usize)>> = split_round_robin(&jobs, threads);
        let mut handles = Vec::new();
        for chunk in chunks {
            let lineup_ref = &lineup.entries;
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(chunk.len());
                for (e, n) in chunk {
                    let (name, factory) = &lineup_ref[e];
                    let cell_seed = config
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((e as u64) << 32 | n as u64);
                    let mut adversary = factory(n, cell_seed);
                    let workload: &dyn Workload = if config.measure_gossip {
                        &Gossip
                    } else {
                        &Broadcast
                    };
                    let report =
                        run_workload(n, &mut adversary, workload, SimulationConfig::for_n(n));
                    #[expect(
                        clippy::panic,
                        reason = "a tournament entrant that cannot broadcast within the cap is a strategy bug worth crashing the harness"
                    )]
                    let broadcast_time = report.broadcast_time.unwrap_or_else(|| {
                        panic!(
                            "adversary {name:?} failed to broadcast at n = {n} \
                             within {} rounds (outcome {:?})",
                            report.rounds, report.outcome
                        )
                    });
                    // Gossip implies broadcast, so it can only complete on
                    // the last round played.
                    let gossip_time =
                        (report.disseminated == report.tokens).then_some(report.rounds);
                    out.push(TournamentRow {
                        adversary: name.clone(),
                        n,
                        broadcast_time,
                        gossip_time,
                        lower_bound: bounds::lower_bound(n as u64),
                        upper_bound: bounds::upper_bound(n as u64),
                    });
                }
                out
            }));
        }
        for h in handles {
            #[expect(
                clippy::expect_used,
                reason = "propagate a tournament worker's panic instead of dropping its rows"
            )]
            rows.extend(h.join().expect("tournament worker panicked"));
        }
    });

    rows.sort_by(|a, b| (a.n, &a.adversary).cmp(&(b.n, &b.adversary)));
    rows
}

fn split_round_robin<T: Clone>(items: &[T], ways: usize) -> Vec<Vec<T>> {
    let mut chunks = vec![Vec::new(); ways.max(1)];
    for (i, item) in items.iter().enumerate() {
        chunks[i % ways.max(1)].push(item.clone());
    }
    chunks.retain(|c| !c.is_empty());
    chunks
}

/// The best (largest) broadcast time achieved per `n`, with the winner's
/// name.
pub fn best_per_n(rows: &[TournamentRow]) -> Vec<(usize, u64, String)> {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.sort_unstable();
    ns.dedup();
    ns.into_iter()
        .map(|n| {
            #[expect(
                clippy::expect_used,
                reason = "every n in the grid was just measured, so each has a row"
            )]
            let best = rows
                .iter()
                .filter(|r| r.n == n)
                .max_by_key(|r| r.broadcast_time)
                .expect("each n has at least one row");
            (n, best.broadcast_time, best.adversary.clone())
        })
        .collect()
}

/// Renders rows as an aligned text table (adversaries × n), one broadcast
/// time per cell, with LB/UB reference columns.
pub fn render_table(rows: &[TournamentRow]) -> String {
    let mut ns: Vec<usize> = rows.iter().map(|r| r.n).collect();
    ns.sort_unstable();
    ns.dedup();
    let mut advs: Vec<&str> = rows.iter().map(|r| r.adversary.as_str()).collect();
    advs.sort_unstable();
    advs.dedup();

    let name_width = advs
        .iter()
        .map(|a| a.len())
        .chain(["adversary".len(), "UB ⌈(1+√2)n−1⌉".chars().count()])
        .max()
        .unwrap_or(12)
        + 2;
    let col_width = 8usize;

    let mut out = String::new();
    out.push_str(&format!("{:<name_width$}", "adversary"));
    for n in &ns {
        out.push_str(&format!("{:>col_width$}", format!("n={n}")));
    }
    out.push('\n');
    for a in &advs {
        out.push_str(&format!("{a:<name_width$}"));
        for n in &ns {
            let cell = rows
                .iter()
                .find(|r| r.adversary == *a && r.n == *n)
                .map(|r| r.broadcast_time.to_string())
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!("{cell:>col_width$}"));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<name_width$}", "LB ⌈(3n−1)/2⌉−2"));
    for n in &ns {
        out.push_str(&format!("{:>col_width$}", bounds::lower_bound(*n as u64)));
    }
    out.push('\n');
    out.push_str(&format!("{:<name_width$}", "UB ⌈(1+√2)n−1⌉"));
    for n in &ns {
        out.push_str(&format!("{:>col_width$}", bounds::upper_bound(*n as u64)));
    }
    out.push('\n');
    out
}

/// Renders rows as CSV.
pub fn to_csv(rows: &[TournamentRow]) -> String {
    let mut out = String::from("adversary,n,broadcast_time,gossip_time,lower_bound,upper_bound\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{}\n",
            r.adversary,
            r.n,
            r.broadcast_time,
            r.gossip_time.map(|g| g.to_string()).unwrap_or_default(),
            r.lower_bound,
            r.upper_bound
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::LookaheadAdversary;

    fn tiny_lineup() -> Lineup {
        Lineup::new()
            .with(
                "static-path",
                Box::new(|n, _| Box::new(StaticSource::new(generators::path(n)))),
            )
            .with(
                "freeze-leader",
                Box::new(|_, _| Box::new(FreezeLeaderAdversary::new())),
            )
    }

    #[test]
    fn tournament_covers_the_grid() {
        let rows = run_tournament(&tiny_lineup(), &[4, 6, 9], TournamentConfig::default());
        assert_eq!(rows.len(), 2 * 3);
        // Static path rows must equal n − 1 exactly.
        for r in rows.iter().filter(|r| r.adversary == "static-path") {
            assert_eq!(r.broadcast_time, (r.n as u64) - 1);
        }
        // Everything inside the theorem bound.
        assert!(rows.iter().all(|r| r.broadcast_time <= r.upper_bound));
    }

    #[test]
    fn rows_are_sorted_and_rendered() {
        let rows = run_tournament(&tiny_lineup(), &[6, 4], TournamentConfig::default());
        assert!(rows
            .windows(2)
            .all(|w| (w[0].n, &w[0].adversary) <= (w[1].n, &w[1].adversary)));
        let table = render_table(&rows);
        assert!(table.contains("n=4"));
        assert!(table.contains("static-path"));
        assert!(table.contains("LB"));
        let csv = to_csv(&rows);
        assert_eq!(csv.lines().count(), 1 + rows.len());
    }

    #[test]
    fn best_per_n_picks_the_max() {
        let rows = run_tournament(&tiny_lineup(), &[8], TournamentConfig::default());
        let best = best_per_n(&rows);
        assert_eq!(best.len(), 1);
        let max = rows.iter().map(|r| r.broadcast_time).max().unwrap();
        assert_eq!(best[0].1, max);
    }

    #[test]
    fn gossip_measurement_mode() {
        let rows = run_tournament(
            &tiny_lineup(),
            &[5],
            TournamentConfig {
                measure_gossip: true,
                ..Default::default()
            },
        );
        // The static path never reaches gossip; freeze-leader does or
        // doesn't — but the field must be populated consistently.
        let path_row = rows.iter().find(|r| r.adversary == "static-path").unwrap();
        assert_eq!(path_row.gossip_time, None);
    }

    #[test]
    fn lookahead_lineup_entry_is_golden() {
        // Pins the exact trajectory of depth-2 `MinMaxReach` lookahead over
        // the slim structured pool (the former lineup entry): its leaf
        // scores and candidate order decide every cell below.
        let lineup = Lineup::new().with(
            "lookahead-2/max-reach",
            Box::new(|_, _| {
                Box::new(LookaheadAdversary::new(
                    StructuredPool {
                        freeze_leaders: 1,
                        brooms: false,
                    },
                    MinMaxReach,
                    2,
                ))
            }),
        );
        let ns: Vec<usize> = (2..=12).collect();
        let config = TournamentConfig {
            threads: 1,
            ..Default::default()
        };
        let times: Vec<u64> = run_tournament(&lineup, &ns, config)
            .iter()
            .map(|r| r.broadcast_time)
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
        // The played trees themselves, at one size: the lookahead finds
        // no line that beats repeating the identity-order path.
        let n = 7;
        let (_, factory) = &lineup.entries[0];
        let mut adversary = factory(n, 0);
        let mut state = treecast_core::BroadcastState::new(n);
        let mut played = Vec::new();
        while state.broadcast_witness().is_none() {
            let tree = adversary.next_tree(&state);
            state.apply(&tree);
            played.push(tree);
        }
        assert_eq!(played, vec![generators::path(n); n - 1]);
    }

    #[test]
    fn standard_lineup_is_rich() {
        let lineup = standard_lineup();
        assert!(lineup.len() >= 10);
        assert!(lineup.names().contains(&"beam-48"));
        assert!(!lineup.is_empty());
    }

    #[test]
    fn single_thread_config_works() {
        let rows = run_tournament(
            &tiny_lineup(),
            &[4, 5],
            TournamentConfig {
                threads: 1,
                ..Default::default()
            },
        );
        assert_eq!(rows.len(), 4);
    }
}
