//! The replica-source contract between anything that runs seeded
//! replicas of a dissemination cell (the synchronous engines, the gossip
//! emulation) and the Monte Carlo layer that aggregates them.
//!
//! A [`ReplicaSource`] describes a cell and runs replica `index` to a
//! [`ReplicaOutcome`], deterministically per index. [`TreeSpec`] and
//! [`FaultSpec`] name the cell's tree stream and fault mix. Every
//! implementor derives seeds through [`replica_seed`] and
//! [`TREE_STREAM_TWEAK`], so replica `r` of a synchronous cell and of its
//! emulated twin see identical streams: paired comparisons.

use crate::scenario::{rate_label, FaultModel, RotatingRoot, RoundFaults, SeededFaults};

/// The tree source a replica runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeSpec {
    /// The static path — the paper's Θ(n)-diameter worst case. The same
    /// tree every round and every replica; all randomness comes from the
    /// fault model.
    Path,
    /// The static star rooted at its center — the one-round broadcast
    /// topology.
    Star,
    /// A fresh uniform random arborescence every round, seeded per
    /// replica (replica `r` draws an independent tree stream).
    SeededUniform,
}

impl TreeSpec {
    /// Human-readable label for tables and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TreeSpec::Path => "static(path)",
            TreeSpec::Star => "static(star)",
            TreeSpec::SeededUniform => "seeded-uniform",
        }
    }
}

/// The randomized fault mix of a cell, applied through
/// [`SeededFaults`] plus an optional deterministic root rotation.
///
/// Rates are per-mille; the percent constructors are exact wrappers
/// (`p%` ≡ `10p‰`), as in [`SeededFaults`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Per-round per-node token-loss probability, per-mille (0..=1000).
    pub loss_permille: u32,
    /// Per-round per-node dropout probability, per-mille (0..=1000).
    pub dropout_permille: u32,
    /// Rounds a dropped-out node stays offline (≥ 1 when dropout is on).
    pub dropout_rounds: u64,
    /// Re-root the round at a deterministic rotating node every
    /// `period` rounds; `None` keeps the source's roots.
    pub rotation_period: Option<u64>,
}

impl FaultSpec {
    /// The fault-free mix.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec::default()
    }

    /// Token loss at `percent`% (exactly `10·percent`‰).
    #[must_use]
    pub fn loss(percent: u32) -> Self {
        FaultSpec::loss_permille(10 * percent)
    }

    /// Token loss at `permille`‰ — the sub-percent resolution the
    /// n ≥ 1024 critical sweeps need.
    #[must_use]
    pub fn loss_permille(permille: u32) -> Self {
        FaultSpec {
            loss_permille: permille,
            ..FaultSpec::default()
        }
    }

    /// Dropout at `percent`% for `rounds` rounds per event.
    #[must_use]
    pub fn dropout(percent: u32, rounds: u64) -> Self {
        FaultSpec::dropout_permille(10 * percent, rounds)
    }

    /// Dropout at `permille`‰ for `rounds` rounds per event.
    #[must_use]
    pub fn dropout_permille(permille: u32, rounds: u64) -> Self {
        FaultSpec {
            dropout_permille: permille,
            dropout_rounds: rounds,
            ..FaultSpec::default()
        }
    }

    /// Deterministic root rotation with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    #[must_use]
    pub fn rotation(period: u64) -> Self {
        FaultSpec {
            rotation_period: Some(RotatingRoot::new(period).period),
            ..FaultSpec::default()
        }
    }

    /// `true` when no fault class is enabled.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.loss_permille == 0 && self.dropout_permille == 0 && self.rotation_period.is_none()
    }

    /// Label for tables and reports (`loss=10%`, `loss=5‰`).
    #[must_use]
    pub fn label(&self) -> String {
        if self.is_quiet() {
            return "no-faults".into();
        }
        let mut parts = Vec::new();
        if self.loss_permille > 0 {
            parts.push(format!("loss={}", rate_label(self.loss_permille)));
        }
        if self.dropout_permille > 0 {
            parts.push(format!(
                "drop={}x{}",
                rate_label(self.dropout_permille),
                self.dropout_rounds.max(1)
            ));
        }
        if let Some(period) = self.rotation_period {
            parts.push(format!("rotate={period}"));
        }
        parts.join(",")
    }

    /// Builds the per-replica fault model for `seed`: the seeded
    /// loss/dropout stream composed with the deterministic root rotation.
    ///
    /// # Panics
    ///
    /// Panics if `rotation_period` is `Some(0)`.
    #[must_use]
    pub fn model(&self, seed: u64) -> impl FaultModel {
        let mut seeded = SeededFaults::new(seed);
        if self.loss_permille > 0 {
            seeded = seeded.with_token_loss_permille(self.loss_permille);
        }
        if self.dropout_permille > 0 {
            seeded =
                seeded.with_dropout_permille(self.dropout_permille, self.dropout_rounds.max(1));
        }
        SpecFaults {
            seeded,
            rotation: self.rotation_period.map(RotatingRoot::new),
        }
    }
}

/// [`SeededFaults`] composed with a [`RotatingRoot`] — the loss/dropout
/// stream stays seeded while the root walks the node ring with a fixed
/// period.
struct SpecFaults {
    seeded: SeededFaults,
    rotation: Option<RotatingRoot>,
}

impl FaultModel for SpecFaults {
    fn faults(&mut self, round: u64, n: usize) -> RoundFaults {
        let mut rf = self.seeded.faults(round, n);
        if let Some(rotation) = &mut self.rotation {
            rf.root = rotation.faults(round, n).root;
        }
        rf
    }

    fn name(&self) -> String {
        match self.rotation {
            Some(r) => format!("{}+rotate({})", self.seeded.name(), r.period),
            None => self.seeded.name(),
        }
    }
}

/// The default censoring budget for a cell: a generous multiple of the
/// fault-free completion regime — 8(n−1) rounds for the static sources
/// (path diameter territory) and `64·⌈log₂ n⌉` for per-round uniform
/// trees (the O(log n) gossip regime), floored at 64 rounds.
#[must_use]
pub fn default_budget(n: usize, trees: TreeSpec) -> u64 {
    let base = match trees {
        TreeSpec::Path | TreeSpec::Star => 8 * (n as u64).saturating_sub(1),
        TreeSpec::SeededUniform => 64 * (usize::BITS - n.leading_zeros()) as u64,
    };
    base.max(64)
}

/// One replica's outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaOutcome {
    /// Completion round, when the workload finished within budget.
    pub rounds: Option<u64>,
}

/// SplitMix64 (David Stafford's finalizer) — the workspace's one 64-bit
/// mixer: seed derivation here, the server's tree hashes and prefix
/// chains, and the solver's canonical-form signatures and state table.
#[inline]
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The derived seed of replica `index` under `base_seed`.
#[must_use]
pub fn replica_seed(base_seed: u64, index: usize) -> u64 {
    splitmix64(base_seed ^ (index as u64 + 1))
}

/// Fixed tweak separating a replica's tree-stream seed from its
/// fault-stream seed. Every [`ReplicaSource`] implementor derives the
/// tree stream as `splitmix64(replica_seed ⊕ TREE_STREAM_TWEAK)` so that
/// synchronous and emulated replicas of the same cell are stream-paired.
pub const TREE_STREAM_TWEAK: u64 = 0x0007_4EE0_0000_0001;

/// Anything that can run seeded independent replicas of one
/// dissemination cell.
///
/// The Monte Carlo layer fans [`ReplicaSource::run_replica`] out over a
/// worker pool and folds the outcomes in index order. `run_replica` must
/// be a pure function of `(self, index)`, which makes every statistic
/// bit-identical for any thread count.
pub trait ReplicaSource: Sync {
    /// Network size of the cell.
    fn n(&self) -> usize;

    /// Tracked token count of the cell.
    fn k(&self) -> usize;

    /// Number of independent replicas the cell fans out.
    fn replicas(&self) -> usize;

    /// Round budget per replica (the censoring horizon).
    fn round_budget(&self) -> u64;

    /// Workload label for tables and reports.
    fn workload_label(&self) -> String;

    /// Tree-source label for tables and reports.
    fn source_label(&self) -> String;

    /// Fault-mix label for tables and reports.
    fn fault_label(&self) -> String;

    /// Runs replica `index` to its outcome. Must be deterministic per
    /// `(self, index)` and independent of call order.
    fn run_replica(&self, index: usize) -> ReplicaOutcome;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_are_distinct_and_stable() {
        let a = replica_seed(7, 0);
        let b = replica_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(a, replica_seed(7, 0), "pure function of (base, index)");
    }

    #[test]
    fn fault_spec_percent_constructors_are_permille_wrappers() {
        assert_eq!(FaultSpec::loss(10), FaultSpec::loss_permille(100));
        assert_eq!(FaultSpec::dropout(5, 2), FaultSpec::dropout_permille(50, 2));
        assert!(FaultSpec::none().is_quiet());
        assert!(!FaultSpec::loss_permille(1).is_quiet());
    }

    #[test]
    fn labels_keep_percent_form_and_expose_permille() {
        assert_eq!(FaultSpec::none().label(), "no-faults");
        assert_eq!(FaultSpec::loss(10).label(), "loss=10%");
        assert_eq!(FaultSpec::loss_permille(5).label(), "loss=5‰");
        assert_eq!(FaultSpec::dropout(5, 2).label(), "drop=5%x2");
        assert_eq!(FaultSpec::rotation(3).label(), "rotate=3");
    }

    #[test]
    fn spec_models_match_plain_seeded_faults() {
        // A FaultSpec-built model must replay the identical stream as the
        // directly-built SeededFaults it wraps.
        let mut via_spec = FaultSpec::dropout_permille(150, 2).model(0xABCD);
        let mut direct = SeededFaults::new(0xABCD).with_dropout_permille(150, 2);
        for round in 1..=32 {
            assert_eq!(via_spec.faults(round, 12), direct.faults(round, 12));
        }
    }

    #[test]
    fn spec_rotation_matches_rotating_root() {
        let mut via_spec = FaultSpec::rotation(3).model(7);
        let mut direct = RotatingRoot::new(3);
        for round in 1..=20 {
            assert_eq!(via_spec.faults(round, 5).root, direct.faults(round, 5).root);
        }
        let seeded = SeededFaults::new(7).name();
        assert_eq!(via_spec.name(), format!("{seeded}+rotate(3)"));
    }

    #[test]
    #[should_panic(expected = "rotation period must be positive")]
    fn rotation_rejects_period_zero() {
        let _ = FaultSpec::rotation(0);
    }

    #[test]
    #[should_panic(expected = "rotation period must be positive")]
    fn model_rejects_period_zero() {
        let spec = FaultSpec {
            rotation_period: Some(0),
            ..FaultSpec::none()
        };
        let _ = spec.model(1);
    }

    #[test]
    fn default_budgets_scale_with_the_regime() {
        assert_eq!(default_budget(1024, TreeSpec::Path), 8 * 1023);
        assert_eq!(default_budget(1024, TreeSpec::SeededUniform), 64 * 11);
        assert_eq!(default_budget(2, TreeSpec::SeededUniform), 128);
    }
}
