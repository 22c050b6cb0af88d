//! Runtime certificates: executable versions of the paper's structural
//! facts, checked on live runs.
//!
//! * **Monotonicity** — self-loops mean no information is ever lost:
//!   `G(t−1) ⊆ G(t)` entry-wise.
//! * **Strict progress** — Section 2: *"in each round, it is easy to see
//!   that at least one new edge appears in the product graph"* (before
//!   broadcast), which gives the trivial `n²` bound.
//! * **Theorem 3.1 sandwich** — any measured broadcast time must respect
//!   `t ≤ ⌈(1+√2)n − 1⌉`; for provably optimal adversaries it must also
//!   reach `⌈(3n−1)/2⌉ − 2`.
//!
//! Attach a [`CertObserver`] as the [`Probe`] of a dense run and
//! interrogate it afterwards, or let property tests assert
//! [`CertObserver::violations`] is empty.

use treecast_trees::RootedTree;

use crate::bounds;
use crate::drive::Probe;
use crate::model::BroadcastState;
use crate::scenario::RoundFaults;
use crate::workload::WorkloadReport;

/// A broken invariant detected during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An entry of the product graph disappeared between rounds.
    MonotonicityBroken {
        /// Round after which the entry vanished.
        round: u64,
    },
    /// A pre-broadcast round added no new edge.
    NoProgress {
        /// The stagnant round.
        round: u64,
    },
    /// The run's tree had the wrong number of nodes.
    WrongTreeSize {
        /// The offending round.
        round: u64,
        /// Nodes in the offending tree.
        got: usize,
        /// Processes in the run.
        expected: usize,
    },
    /// Broadcast happened later than the paper's upper bound allows.
    UpperBoundExceeded {
        /// Measured broadcast time.
        measured: u64,
        /// The bound `⌈(1+√2)n − 1⌉`.
        bound: u64,
    },
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Violation::MonotonicityBroken { round } => {
                write!(f, "product graph lost an edge after round {round}")
            }
            Violation::NoProgress { round } => {
                write!(f, "round {round} added no edge before broadcast")
            }
            Violation::WrongTreeSize {
                round,
                got,
                expected,
            } => write!(f, "round {round} tree has {got} nodes, expected {expected}"),
            Violation::UpperBoundExceeded { measured, bound } => write!(
                f,
                "broadcast took {measured} rounds, above the theorem bound {bound}"
            ),
        }
    }
}

/// A dense-engine [`Probe`] that checks monotonicity, strict progress, and
/// the Theorem 3.1 upper bound on every run it watches.
///
/// Full subset checks cost `O(n²/64)` per round; cheap mode
/// ([`CertObserver::edges_only`]) tracks only edge counts, which already
/// implies strict progress and catches gross monotonicity breaks.
///
/// # Examples
///
/// ```
/// use treecast_core::{
///     drive, Broadcast, CertObserver, DenseEngine, NoFaults, SimulationConfig, StaticSource,
/// };
/// use treecast_trees::generators;
///
/// let n = 7;
/// let mut cert = CertObserver::full();
/// let mut source = StaticSource::new(generators::path(n));
/// let mut engine = DenseEngine::new(n, &mut source, &Broadcast);
/// let cfg = SimulationConfig::for_n(n);
/// drive(&mut engine, &Broadcast, &mut NoFaults, cfg, false, &mut cert);
/// assert!(cert.is_clean(), "violations: {:?}", cert.violations());
/// ```
#[derive(Debug, Clone)]
pub struct CertObserver {
    full_checks: bool,
    prev_state: Option<BroadcastState>,
    prev_edges: usize,
    had_witness: bool,
    violations: Vec<Violation>,
}

impl CertObserver {
    /// Full per-round subset checks plus edge accounting.
    pub fn full() -> Self {
        CertObserver {
            full_checks: true,
            prev_state: None,
            prev_edges: 0,
            had_witness: false,
            violations: Vec::new(),
        }
    }

    /// Edge-count-only mode for large runs.
    pub fn edges_only() -> Self {
        CertObserver {
            full_checks: false,
            ..Self::full()
        }
    }

    /// All violations recorded so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// Returns `true` if no violation was recorded.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl Probe<BroadcastState> for CertObserver {
    fn on_round(&mut self, _faults: &RoundFaults, tree: &RootedTree, state: &BroadcastState) {
        let round = state.round();
        if tree.n() != state.n() {
            self.violations.push(Violation::WrongTreeSize {
                round,
                got: tree.n(),
                expected: state.n(),
            });
        }
        let first_round = self.prev_state.is_none() && self.prev_edges == 0;
        let prev_edges = if first_round {
            state.n()
        } else {
            self.prev_edges
        };

        let edges = state.edge_count();
        if edges < prev_edges {
            self.violations
                .push(Violation::MonotonicityBroken { round });
        }
        // Strict progress applies to rounds that start without a witness.
        if !self.had_witness && edges == prev_edges {
            self.violations.push(Violation::NoProgress { round });
        }
        if self.full_checks {
            if let Some(prev) = &self.prev_state {
                for y in 0..state.n() {
                    if !prev.heard_set(y).is_subset(state.heard_set(y)) {
                        self.violations
                            .push(Violation::MonotonicityBroken { round });
                        break;
                    }
                }
            }
            self.prev_state = Some(state.clone());
        }
        self.prev_edges = edges;
        self.had_witness = state.broadcast_witness().is_some();
    }

    fn on_finish(&mut self, report: &WorkloadReport) {
        if let Some(t) = report.broadcast_time {
            let bound = bounds::upper_bound(report.n as u64);
            if t > bound {
                self.violations
                    .push(Violation::UpperBoundExceeded { measured: t, bound });
            }
        }
    }
}

/// Verdict of checking a measured broadcast time against Theorem 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TheoremVerdict {
    /// Number of processes.
    pub n: u64,
    /// The measured broadcast time.
    pub measured: u64,
    /// `measured ≤ ⌈(1+√2)n − 1⌉` — must hold for *every* adversary.
    pub within_upper: bool,
    /// `measured ≥ ⌈(3n−1)/2⌉ − 2` — expected only of (near-)optimal
    /// adversaries; `false` just means the strategy is weak.
    pub reaches_lower: bool,
}

/// Checks a measured broadcast time against both sides of Theorem 3.1.
///
/// # Examples
///
/// ```
/// use treecast_core::cert::check_theorem;
/// let v = check_theorem(10, 14);
/// assert!(v.within_upper && v.reaches_lower);
/// let weak = check_theorem(10, 9); // static path: n − 1
/// assert!(weak.within_upper && !weak.reaches_lower);
/// ```
pub fn check_theorem(n: u64, measured: u64) -> TheoremVerdict {
    TheoremVerdict {
        n,
        measured,
        within_upper: measured <= bounds::upper_bound(n),
        reaches_lower: measured >= bounds::lower_bound(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{drive, DenseEngine};
    use crate::engine::{SimulationConfig, StaticSource};
    use crate::scenario::NoFaults;
    use crate::workload::{Broadcast, Gossip, Workload, WorkloadOutcome};
    use treecast_trees::generators;

    /// Plays the static `tree` on the dense engine for at most `cap`
    /// rounds, with `cert` attached.
    fn certify(cert: &mut CertObserver, tree: RootedTree, workload: &dyn Workload, cap: u64) {
        let n = tree.n();
        let mut source = StaticSource::new(tree);
        let mut engine = DenseEngine::new(n, &mut source, workload);
        let cfg = SimulationConfig::for_n(n).with_max_rounds(cap);
        drive(&mut engine, workload, &mut NoFaults, cfg, false, cert);
    }

    #[test]
    fn clean_run_has_no_violations() {
        for n in [2usize, 5, 9, 17] {
            let mut cert = CertObserver::full();
            certify(&mut cert, generators::path(n), &Broadcast, 100);
            assert!(cert.is_clean(), "n = {n}: {:?}", cert.violations());
        }
    }

    #[test]
    fn cheap_mode_also_clean() {
        let mut cert = CertObserver::edges_only();
        certify(&mut cert, generators::broom(33, 5), &Broadcast, 100);
        assert!(cert.is_clean());
    }

    #[test]
    fn detects_upper_bound_breach() {
        // Fabricate a report that claims to exceed the theorem bound.
        let mut cert = CertObserver::full();
        let report = WorkloadReport {
            n: 4,
            workload: "broadcast".into(),
            source: "fake".into(),
            rounds: 100,
            outcome: WorkloadOutcome::Completed,
            completion_time: Some(100),
            broadcast_time: Some(100),
            disseminated: 1,
            tokens: 4,
            fault_log: Vec::new(),
        };
        cert.on_finish(&report);
        assert!(matches!(
            cert.violations()[0],
            Violation::UpperBoundExceeded { measured: 100, .. }
        ));
    }

    #[test]
    fn theorem_check_examples() {
        // n = 4: LB 4, UB 9.
        assert!(check_theorem(4, 4).reaches_lower);
        assert!(check_theorem(4, 4).within_upper);
        assert!(!check_theorem(4, 3).reaches_lower);
        assert!(!check_theorem(4, 10).within_upper);
    }

    #[test]
    fn violation_display_messages() {
        let v = Violation::NoProgress { round: 3 };
        assert!(v.to_string().contains("round 3"));
        let v = Violation::WrongTreeSize {
            round: 1,
            got: 2,
            expected: 5,
        };
        assert!(v.to_string().contains("expected 5"));
    }

    #[test]
    fn strict_progress_past_witness_is_allowed() {
        // After broadcast is achieved (witness exists), a stagnant round
        // must NOT be flagged: run to gossip on a tree that stalls.
        let mut cert = CertObserver::full();
        certify(&mut cert, generators::path(3), &Gossip, 10);
        // The static path stalls after the root's row fills; no NoProgress
        // may be reported for those later rounds.
        assert!(
            cert.violations()
                .iter()
                .all(|v| !matches!(v, Violation::NoProgress { .. })),
            "{:?}",
            cert.violations()
        );
    }
}
