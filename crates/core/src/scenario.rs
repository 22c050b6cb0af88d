//! The fault/scenario layer over [`run_workload`]: token loss, dynamic
//! root reassignment, and node dropout/rejoin.
//!
//! The paper guarantees perfect memory, a fixed root per tree and full
//! participation; Schwarz, Zeiner & Schmid (arXiv:1701.06800) show the
//! bounds shift once such guarantees weaken. This module makes the
//! weakened scenarios executable over the [`Workload`] lattice:
//!
//! * **token loss** — at the end of a round a node forgets every token
//!   but its own ([`BroadcastState::forget`]);
//! * **root reassignment** — the round tree is re-rooted at another node
//!   (`RootedTree::rerooted`), keeping its topology;
//! * **dropout** — an offline node's tree edges are dropped for the round
//!   (it keeps its memory and self-loop).
//!
//! Faults come from a [`FaultModel`]: [`FaultSchedule`], [`RotatingRoot`]
//! or the seeded [`SeededFaults`]. [`run_workload_faulty`] records the
//! faults it applied in [`WorkloadReport::fault_log`], and
//! [`FaultSchedule::replay`] of that log reproduces the run
//! bit-identically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use treecast_trees::NodeId;

use crate::drive::{drive, DenseEngine};
use crate::engine::{SimulationConfig, TreeSource};
use crate::workload::{Workload, WorkloadReport};

#[cfg(doc)]
use crate::{model::BroadcastState, workload::run_workload};

/// The faults applied in one round. Produced by a [`FaultModel`],
/// normalized (sorted, deduplicated, bounds-checked) and recorded verbatim
/// into [`WorkloadReport::fault_log`] by the runner.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RoundFaults {
    /// Nodes that forget all foreign tokens at the end of the round.
    pub losses: Vec<NodeId>,
    /// Re-root the round's tree at this node before applying it.
    pub root: Option<NodeId>,
    /// Nodes offline for this round: their incident tree edges are
    /// dropped (memory and self-loop are kept).
    pub offline: Vec<NodeId>,
}

impl RoundFaults {
    /// A fault-free round.
    pub fn quiet() -> Self {
        RoundFaults::default()
    }

    /// `true` when the round carries no fault at all.
    pub fn is_quiet(&self) -> bool {
        self.losses.is_empty() && self.root.is_none() && self.offline.is_empty()
    }

    /// Checks that every node the round names is `< n`: the bounds rule
    /// of [`RoundFaults::normalize`], for callers that must reject
    /// untrusted faults instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range node.
    pub fn check(&self, n: usize) -> Result<(), String> {
        if let Some(v) = self.losses.iter().chain(&self.offline).find(|&&v| v >= n) {
            return Err(format!("fault names node {v}, out of range for n = {n}"));
        }
        match self.root {
            Some(r) if r >= n => Err(format!("fault root {r} out of range for n = {n}")),
            _ => Ok(()),
        }
    }

    /// Sorts and deduplicates the node lists and bounds-checks them
    /// ([`RoundFaults::check`]), as [`drive`] does before every round.
    ///
    /// # Panics
    ///
    /// Panics if any named node is `>= n`.
    pub fn normalize(&mut self, n: usize) {
        self.losses.sort_unstable();
        self.losses.dedup();
        self.offline.sort_unstable();
        self.offline.dedup();
        if let Err(message) = self.check(n) {
            // analyze: allow(panic): documented contract; untrusted input goes through `check` first
            panic!("{message}");
        }
    }
}

/// Produces the faults of each round, in round order.
///
/// The runner calls [`FaultModel::faults`] exactly once per executed
/// round with rounds numbered from 1, so stateful models (seeded RNGs,
/// dropout windows) are deterministic per run.
pub trait FaultModel {
    /// The faults to apply in round `round` (1-based) of an `n`-process
    /// run.
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults;

    /// Name used in reports.
    fn name(&self) -> String;
}

/// The fault-free model: [`run_workload_faulty`] under [`NoFaults`] is
/// round-for-round identical to plain [`run_workload`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    fn faults(&mut self, _round: u64, _n: usize) -> RoundFaults {
        RoundFaults::quiet()
    }

    fn name(&self) -> String {
        "no-faults".into()
    }
}

/// An explicit per-round fault schedule; rounds beyond the end are quiet.
///
/// This is both the hand-written scenario construct and the replay vehicle:
/// [`FaultSchedule::replay`] of a recorded
/// [`WorkloadReport::fault_log`] drives a bit-identical rerun.
#[derive(Debug, Clone, Default)]
pub struct FaultSchedule {
    rounds: Vec<RoundFaults>,
}

impl FaultSchedule {
    /// A schedule applying `rounds[t - 1]` in round `t`.
    pub fn new(rounds: Vec<RoundFaults>) -> Self {
        FaultSchedule { rounds }
    }

    /// A schedule replaying a recorded fault log.
    pub fn replay(log: &[RoundFaults]) -> Self {
        FaultSchedule {
            rounds: log.to_vec(),
        }
    }

    /// The scheduled rounds.
    pub fn rounds(&self) -> &[RoundFaults] {
        &self.rounds
    }
}

impl FaultModel for FaultSchedule {
    fn faults(&mut self, round: u64, _n: usize) -> RoundFaults {
        self.rounds
            .get((round - 1) as usize)
            .cloned()
            .unwrap_or_default()
    }

    fn name(&self) -> String {
        format!("schedule(len={})", self.rounds.len())
    }
}

/// Deterministic dynamic-root scenario: every `period` rounds the root
/// role moves to the next node (round `t` re-roots at
/// `((t − 1) / period) mod n`).
#[derive(Debug, Clone, Copy)]
pub struct RotatingRoot {
    pub(crate) period: u64,
}

impl RotatingRoot {
    /// Rotation with the given period (in rounds).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period >= 1, "rotation period must be positive");
        RotatingRoot { period }
    }
}

impl FaultModel for RotatingRoot {
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults {
        RoundFaults {
            root: Some((((round - 1) / self.period) % n as u64) as NodeId),
            ..RoundFaults::quiet()
        }
    }

    fn name(&self) -> String {
        format!("rotating-root(period={})", self.period)
    }
}

/// Seeded random fault generator: per round, every node forgets with
/// probability `loss_permille`/1000, goes offline for `dropout_rounds`
/// rounds with probability `dropout_permille`/1000, and the round is
/// re-rooted at a uniform node with probability `root_permille`/1000.
/// The percent builders are exact wrappers over the per-mille ones
/// (`p%` ≡ `10p‰`).
///
/// Deterministic given the seed, since the driver queries rounds in order.
///
/// Loss is sampled for **every** node, offline ones included: dropout is
/// a connectivity fault and loss a memory fault, drawn independently (a
/// suppressed draw would shift the rest of the stream), so one node may
/// appear in both `losses` and `offline`. The dropout windows are
/// per-node state, so one instance serves a single `n`.
#[derive(Debug, Clone)]
pub struct SeededFaults {
    rng: StdRng,
    seed: u64,
    loss_permille: u32,
    dropout_permille: u32,
    dropout_rounds: u64,
    root_permille: u32,
    /// Per node, the first round it is back online (0 = online now).
    offline_until: Vec<u64>,
}

impl SeededFaults {
    /// A quiet model with the given seed; enable fault classes with the
    /// builder methods.
    pub fn new(seed: u64) -> Self {
        SeededFaults {
            rng: StdRng::seed_from_u64(seed),
            seed,
            loss_permille: 0,
            dropout_permille: 0,
            dropout_rounds: 1,
            root_permille: 0,
            offline_until: Vec::new(),
        }
    }

    /// Every node forgets with probability `percent`/100 per round.
    ///
    /// Exact wrapper over [`SeededFaults::with_token_loss_permille`]
    /// (`percent`% ≡ `10·percent`‰, draw-for-draw).
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn with_token_loss(self, percent: u32) -> Self {
        assert!(percent <= 100, "loss percent must be ≤ 100");
        self.with_token_loss_permille(10 * percent)
    }

    /// Every node forgets with probability `permille`/1000 per round.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000`.
    pub fn with_token_loss_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "loss permille must be ≤ 1000");
        self.loss_permille = permille;
        self
    }

    /// Every online node drops out with probability `percent`/100 per
    /// round, staying offline for `rounds` rounds before rejoining.
    ///
    /// Exact wrapper over [`SeededFaults::with_dropout_permille`]
    /// (`percent`% ≡ `10·percent`‰, draw-for-draw).
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100` or `rounds == 0`.
    pub fn with_dropout(self, percent: u32, rounds: u64) -> Self {
        assert!(percent <= 100, "dropout percent must be ≤ 100");
        self.with_dropout_permille(10 * percent, rounds)
    }

    /// Every online node drops out with probability `permille`/1000 per
    /// round, staying offline for `rounds` rounds before rejoining.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000` or `rounds == 0`.
    pub fn with_dropout_permille(mut self, permille: u32, rounds: u64) -> Self {
        assert!(permille <= 1000, "dropout permille must be ≤ 1000");
        assert!(rounds >= 1, "dropout must last at least one round");
        self.dropout_permille = permille;
        self.dropout_rounds = rounds;
        self
    }

    /// The round is re-rooted at a uniform random node with probability
    /// `percent`/100.
    ///
    /// Exact wrapper over [`SeededFaults::with_root_changes_permille`]
    /// (`percent`% ≡ `10·percent`‰, draw-for-draw).
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    pub fn with_root_changes(self, percent: u32) -> Self {
        assert!(percent <= 100, "root-change percent must be ≤ 100");
        self.with_root_changes_permille(10 * percent)
    }

    /// The round is re-rooted at a uniform random node with probability
    /// `permille`/1000.
    ///
    /// # Panics
    ///
    /// Panics if `permille > 1000`.
    pub fn with_root_changes_permille(mut self, permille: u32) -> Self {
        assert!(permille <= 1000, "root-change permille must be ≤ 1000");
        self.root_permille = permille;
        self
    }

    /// One Bernoulli draw at `permille`/1000: one RNG word for any
    /// non-zero rate, with whole percents drawn as `gen_ratio(p, 100)` so
    /// percent-configured streams keep their recorded values.
    fn chance(&mut self, permille: u32) -> bool {
        if permille == 0 {
            false
        } else if permille.is_multiple_of(10) {
            self.rng.gen_ratio(permille / 10, 100)
        } else {
            self.rng.gen_ratio(permille, 1000)
        }
    }
}

/// `5%` for whole percents, `5‰` otherwise (shared with
/// [`crate::replica::FaultSpec`]).
pub(crate) fn rate_label(permille: u32) -> String {
    if permille.is_multiple_of(10) {
        format!("{}%", permille / 10)
    } else {
        format!("{permille}‰")
    }
}

impl FaultModel for SeededFaults {
    /// # Panics
    ///
    /// Panics if `n` differs from the `n` of an earlier call.
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults {
        assert!(
            self.offline_until.is_empty() || self.offline_until.len() == n,
            "SeededFaults was driven at n = {} and cannot switch to n = {n}: \
             the dropout windows are per-node state",
            self.offline_until.len()
        );
        self.offline_until.resize(n, 0);
        let mut faults = RoundFaults::quiet();
        for v in 0..n {
            if self.offline_until[v] > round {
                faults.offline.push(v);
            } else if self.chance(self.dropout_permille) {
                self.offline_until[v] = round + self.dropout_rounds;
                faults.offline.push(v);
            }
            // Sampled for offline nodes too — see the struct docs: loss is
            // a memory fault, independent of the connectivity fault.
            if self.chance(self.loss_permille) {
                faults.losses.push(v);
            }
        }
        if self.chance(self.root_permille) {
            faults.root = Some(self.rng.gen_range(0..n));
        }
        faults
    }

    fn name(&self) -> String {
        format!(
            "seeded(seed={}, loss={}, drop={}x{}, root={})",
            self.seed,
            rate_label(self.loss_permille),
            rate_label(self.dropout_permille),
            self.dropout_rounds,
            rate_label(self.root_permille)
        )
    }
}

/// Runs `source` against `workload` under `faults` on the [`DenseEngine`]
/// — the fault-layer generalization of [`run_workload`]. The faults
/// applied land in [`WorkloadReport::fault_log`], and
/// [`FaultSchedule::replay`] of that log reproduces the run
/// bit-identically. Token loss makes progress non-monotone; the run
/// still stops at the first round whose end state satisfies the
/// workload (or at the cap).
///
/// # Examples
///
/// ```
/// use treecast_core::scenario::{run_workload_faulty, NoFaults};
/// use treecast_core::{run_workload, Broadcast, SimulationConfig, StaticSource};
/// use treecast_trees::generators;
///
/// let n = 6;
/// let cfg = SimulationConfig::for_n(n);
/// let mut a = StaticSource::new(generators::path(n));
/// let mut b = StaticSource::new(generators::path(n));
/// let faulty = run_workload_faulty(n, &mut a, &Broadcast, &mut NoFaults, cfg);
/// let plain = run_workload(n, &mut b, &Broadcast, cfg);
/// assert_eq!(faulty.completion_time, plain.completion_time);
/// assert!(faulty.fault_log.iter().all(|f| f.is_quiet()));
/// ```
///
/// # Panics
///
/// Panics if `n == 0`, a fault names a node `>= n`, or the tree source
/// produces a tree of the wrong size.
pub fn run_workload_faulty<S, W, F>(
    n: usize,
    source: &mut S,
    workload: &W,
    faults: &mut F,
    config: SimulationConfig,
) -> WorkloadReport
where
    S: TreeSource + ?Sized,
    W: Workload + ?Sized,
    F: FaultModel + ?Sized,
{
    let mut engine = DenseEngine::new(n, source, workload);
    drive(&mut engine, workload, faults, config, true, &mut ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SequenceSource, StaticSource};
    use crate::workload::{run_workload, Broadcast, Gossip, KSourceBroadcast, WorkloadOutcome};
    use treecast_trees::generators;

    #[test]
    fn no_faults_matches_run_workload() {
        for n in [2usize, 5, 9] {
            let cfg = SimulationConfig::for_n(n);
            let mut a = StaticSource::new(generators::path(n));
            let mut b = StaticSource::new(generators::path(n));
            let faulty = run_workload_faulty(n, &mut a, &Broadcast, &mut NoFaults, cfg);
            let plain = run_workload(n, &mut b, &Broadcast, cfg);
            assert_eq!(faulty.completion_time, plain.completion_time, "n = {n}");
            assert_eq!(faulty.broadcast_time, plain.broadcast_time, "n = {n}");
            assert_eq!(faulty.rounds, plain.rounds, "n = {n}");
            assert_eq!(faulty.fault_log.len() as u64, faulty.rounds);
        }
    }

    #[test]
    fn token_loss_delays_the_static_path() {
        // Losing the far end of the path every round stalls it: node n−1
        // forgets each round, so the root token never sticks there.
        let n = 5;
        let mut schedule: Vec<RoundFaults> = Vec::new();
        for _ in 0..3 * n {
            schedule.push(RoundFaults {
                losses: vec![n - 1],
                ..RoundFaults::quiet()
            });
        }
        let mut src = StaticSource::new(generators::path(n));
        let report = run_workload_faulty(
            n,
            &mut src,
            &Broadcast,
            &mut FaultSchedule::new(schedule),
            SimulationConfig::for_n(n).with_max_rounds(3 * n as u64),
        );
        assert_eq!(report.outcome, WorkloadOutcome::RoundLimit);
        assert_eq!(report.completion_time, None);
    }

    #[test]
    fn offline_root_freezes_the_round() {
        // With the root of a star offline, the round is all self-loops:
        // nothing moves.
        let n = 6;
        let mut schedule = FaultSchedule::new(vec![RoundFaults {
            offline: vec![0],
            ..RoundFaults::quiet()
        }]);
        let mut src = StaticSource::new(generators::star(n));
        let report = run_workload_faulty(
            n,
            &mut src,
            &Broadcast,
            &mut schedule,
            SimulationConfig::for_n(n),
        );
        // Round 1 is frozen, round 2 completes the star broadcast.
        assert_eq!(report.completion_time, Some(2));
    }

    #[test]
    fn rotating_root_changes_the_static_path() {
        // Re-rooting the static path makes it complete from a different
        // witness; the run must still finish within the cap and log a root
        // change every round.
        let n = 6;
        let mut src = StaticSource::new(generators::path(n));
        let report = run_workload_faulty(
            n,
            &mut src,
            &Broadcast,
            &mut RotatingRoot::new(2),
            SimulationConfig::for_n(n),
        );
        assert!(report.completion_time.is_some());
        assert!(report.fault_log.iter().all(|f| f.root.is_some()));
    }

    #[test]
    fn seeded_faults_replay_bit_identically() {
        let n = 7;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(4 * n as u64);
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut model = SeededFaults::new(0xFA017)
            .with_token_loss(20)
            .with_dropout(15, 2)
            .with_root_changes(30);
        let mut src = SequenceSource::new(schedule.clone());
        let original = run_workload_faulty(n, &mut src, &Gossip, &mut model, cfg);

        let mut replay = FaultSchedule::replay(&original.fault_log);
        let mut src = SequenceSource::new(schedule);
        let rerun = run_workload_faulty(n, &mut src, &Gossip, &mut replay, cfg);
        assert_eq!(rerun.completion_time, original.completion_time);
        assert_eq!(rerun.broadcast_time, original.broadcast_time);
        assert_eq!(rerun.rounds, original.rounds);
        assert_eq!(rerun.disseminated, original.disseminated);
        assert_eq!(rerun.fault_log, original.fault_log);
    }

    #[test]
    fn tracked_workloads_take_faults_too() {
        let n = 6;
        let workload = KSourceBroadcast::evenly_spread(n, 2);
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut src = SequenceSource::new(schedule);
        let mut model = SeededFaults::new(7).with_token_loss(25);
        let report = run_workload_faulty(
            n,
            &mut src,
            &workload,
            &mut model,
            SimulationConfig::for_n(n),
        );
        assert_eq!(report.tokens, 2);
        assert_eq!(report.fault_log.len() as u64, report.rounds);
    }

    #[test]
    fn fault_normalization_sorts_and_dedups() {
        let mut rf = RoundFaults {
            losses: vec![3, 1, 3],
            root: Some(2),
            offline: vec![4, 4, 0],
        };
        rf.normalize(5);
        assert_eq!(rf.losses, vec![1, 3]);
        assert_eq!(rf.offline, vec![0, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fault_on_unknown_node_rejected() {
        let n = 4;
        let mut schedule = FaultSchedule::new(vec![RoundFaults {
            losses: vec![n],
            ..RoundFaults::quiet()
        }]);
        let mut src = StaticSource::new(generators::path(n));
        run_workload_faulty(
            n,
            &mut src,
            &Broadcast,
            &mut schedule,
            SimulationConfig::for_n(n),
        );
    }

    #[test]
    fn model_names_mention_configuration() {
        assert_eq!(NoFaults.name(), "no-faults");
        assert!(FaultSchedule::new(vec![]).name().contains("len=0"));
        assert!(RotatingRoot::new(3).name().contains("period=3"));
        let s = SeededFaults::new(9).with_token_loss(5).name();
        assert!(s.contains("loss=5%"), "{s}");
        let s = SeededFaults::new(9).with_token_loss_permille(7).name();
        assert!(s.contains("loss=7‰"), "{s}");
    }

    #[test]
    fn percent_and_permille_streams_are_bit_identical() {
        // The percent builders are exact wrappers: p% and 10p‰ must draw
        // the identical fault stream (this is what keeps every recorded
        // percent-era baseline and replay valid).
        let n = 9;
        let mut percent = SeededFaults::new(0xBEEF)
            .with_token_loss(7)
            .with_dropout(15, 2)
            .with_root_changes(30);
        let mut permille = SeededFaults::new(0xBEEF)
            .with_token_loss_permille(70)
            .with_dropout_permille(150, 2)
            .with_root_changes_permille(300);
        for round in 1..=64 {
            assert_eq!(
                percent.faults(round, n),
                permille.faults(round, n),
                "round {round}"
            );
        }
    }

    #[test]
    fn permille_resolves_sub_percent_rates() {
        // 5‰ must fire sometimes (it is not floored to zero) but stay
        // well under a 2% empirical rate over a long deterministic run.
        let n = 100;
        let rounds = 200;
        let mut model = SeededFaults::new(0x5EED).with_token_loss_permille(5);
        let events: usize = (1..=rounds).map(|r| model.faults(r, n).losses.len()).sum();
        let draws = rounds as usize * n;
        assert!(events > 0, "5‰ over {draws} draws fired zero times");
        assert!(
            events * 50 < draws,
            "5‰ fired {events}/{draws} times — above 2%"
        );
    }

    #[test]
    fn offline_nodes_still_sample_loss() {
        // Loss is a memory fault, independent of dropout: a round may
        // name the same node in both lists, and the combined run still
        // replays bit-identically from its log.
        let n = 8;
        let cfg = SimulationConfig::for_n(n).with_max_rounds(6 * n as u64);
        let schedule: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
        let mut model = SeededFaults::new(0x0FF1)
            .with_token_loss(50)
            .with_dropout(50, 3);
        let mut src = SequenceSource::new(schedule.clone());
        let original = run_workload_faulty(n, &mut src, &Gossip, &mut model, cfg);
        let overlap = original.fault_log.iter().any(|rf| {
            rf.losses
                .iter()
                .any(|v| rf.offline.binary_search(v).is_ok())
        });
        assert!(
            overlap,
            "expected some round to lose a token on an offline node: {:?}",
            original.fault_log
        );

        let mut replay = FaultSchedule::replay(&original.fault_log);
        let mut src = SequenceSource::new(schedule);
        let rerun = run_workload_faulty(n, &mut src, &Gossip, &mut replay, cfg);
        assert_eq!(rerun.fault_log, original.fault_log);
        assert_eq!(rerun.completion_time, original.completion_time);
        assert_eq!(rerun.disseminated, original.disseminated);
    }

    #[test]
    #[should_panic(expected = "cannot switch to n")]
    fn seeded_faults_reject_changing_n() {
        let mut model = SeededFaults::new(1).with_dropout(10, 2);
        let _ = model.faults(1, 8);
        let _ = model.faults(2, 4);
    }

    #[test]
    #[should_panic(expected = "loss permille must be ≤ 1000")]
    fn permille_rates_are_bounded() {
        let _ = SeededFaults::new(1).with_token_loss_permille(1001);
    }
}
