//! Parameter-grid sweeps over [`RunSpec`] cells and the
//! phase-transition readout: where does a (workload, n, source) cell
//! cross from finite expected dissemination time into censored stalls?
//!
//! A sweep varies the token-loss rate ([`SweepDim`]) over a value grid, estimating every grid point with the same replica count,
//! budget and base seed. The critical value reported by
//! [`SweepResult::critical_value`] is the first grid point whose cell
//! *stalls* — a majority of replicas censored at the round budget
//! ([`MonteCarloEstimate::stalled`]) — the executable mirror of the
//! companion paper's k ≥ 2 divergence: beyond the transition the
//! expected completion time is not finite, so no budget is large enough
//! and the censored count is the honest statistic.

use crate::replica::{estimate_from, FaultSpec, MonteCarloEstimate, ReplicaSource, RunSpec};

/// The fault dimension a sweep varies: the token-loss rate, at one of
/// two resolutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepDim {
    /// Token-loss probability, percent.
    LossPercent,
    /// Token-loss probability, per-mille — the resolution that locates
    /// the n ≥ 1024 transitions the percent grid can only floor at 1%.
    LossPermille,
}

impl SweepDim {
    /// Column label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SweepDim::LossPercent => "loss %",
            SweepDim::LossPermille => "loss ‰",
        }
    }

    /// The base [`FaultSpec`] with this dimension set to `value`.
    #[must_use]
    pub fn fault_spec(self, value: u64) -> FaultSpec {
        match self {
            SweepDim::LossPercent => FaultSpec::loss(value as u32),
            SweepDim::LossPermille => FaultSpec::loss_permille(value as u32),
        }
    }
}

/// One grid point of a sweep: the swept value and its estimate.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepCell {
    /// The swept dimension's value at this point.
    pub value: u64,
    /// The Monte Carlo estimate of the cell.
    pub estimate: MonteCarloEstimate,
}

/// A completed sweep: the grid in ascending order plus the spec echo.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Column label of the varied dimension ([`SweepDim::label`] for the
    /// fault dims; the emulation layer's knob dims supply their own).
    pub dim: String,
    /// Grid points, in the order swept.
    pub cells: Vec<SweepCell>,
}

impl SweepResult {
    /// The first swept value whose cell stalled (majority censored), if
    /// any — the located phase transition. For a loss grid swept in
    /// ascending order this is the critical probability.
    #[must_use]
    pub fn critical_value(&self) -> Option<u64> {
        self.cells
            .iter()
            .find(|c| c.estimate.stalled())
            .map(|c| c.value)
    }
}

/// Sweeps `dim` over `values` for the cell shape of `base` (its fault
/// spec is replaced per grid point; everything else — n, k, trees,
/// budget, replicas, seed — is shared). Each grid point runs on
/// `threads` workers; results are bit-identical for any thread count.
///
/// # Panics
///
/// Panics on an invalid base spec, or on percent values above 100.
#[must_use]
pub fn sweep(base: &RunSpec, dim: SweepDim, values: &[u64], threads: usize) -> SweepResult {
    sweep_cells(
        dim.label(),
        values,
        |value| {
            let mut spec = base.clone();
            spec.faults = dim.fault_spec(value);
            spec
        },
        threads,
    )
}

/// The generic grid behind [`sweep`]: estimates `cell(value)` for every
/// grid value, over any [`ReplicaSource`]. This is how scenario knobs
/// that live outside the fault layer — the emulation's bandwidth cap
/// and advert fan-out — become first-class sweep dimensions
/// with the same [`SweepResult::critical_value`] readout.
///
/// # Panics
///
/// Panics if `cell` builds an invalid source — same contract as
/// [`crate::estimate_from`].
#[must_use]
pub fn sweep_cells<S, F>(
    dim_label: impl Into<String>,
    values: &[u64],
    mut cell: F,
    threads: usize,
) -> SweepResult
where
    S: ReplicaSource,
    F: FnMut(u64) -> S,
{
    let cells = values
        .iter()
        .map(|&value| SweepCell {
            value,
            estimate: estimate_from(&cell(value), threads),
        })
        .collect();
    SweepResult {
        dim: dim_label.into(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::TreeSpec;

    #[test]
    fn loss_sweep_locates_the_stall_on_a_small_path() {
        // On the static path the frontier advances one hop per fault-free
        // round and recedes under loss at the front; past ~50% loss the
        // drift goes negative and the cell stalls within any budget.
        let base = RunSpec::new(12, 1, TreeSpec::Path, FaultSpec::none())
            .with_replicas(24)
            .with_budget(220)
            .with_seed(0x5EED);
        let result = sweep(&base, SweepDim::LossPercent, &[0, 20, 90], 4);
        assert_eq!(result.cells.len(), 3);
        assert!(
            !result.cells[0].estimate.stalled(),
            "fault-free cell must complete: {:?}",
            result.cells[0]
        );
        assert!(
            result.cells[2].estimate.stalled(),
            "90% loss must stall: {:?}",
            result.cells[2]
        );
        assert_eq!(result.critical_value(), Some(90));
    }

    #[test]
    fn fault_free_grid_point_is_deterministic() {
        let base = RunSpec::new(10, 1, TreeSpec::Path, FaultSpec::none()).with_replicas(8);
        let result = sweep(&base, SweepDim::LossPercent, &[0], 2);
        let est = &result.cells[0].estimate;
        assert_eq!(est.stats.completed(), 8);
        assert_eq!(est.stats.min(), Some(9));
        assert_eq!(est.stats.max(), Some(9), "no faults: every replica = n-1");
        assert_eq!(result.critical_value(), None);
    }

    #[test]
    fn dims_map_to_fault_specs() {
        assert_eq!(SweepDim::LossPercent.fault_spec(30), FaultSpec::loss(30));
        assert_eq!(
            SweepDim::LossPermille.fault_spec(5),
            FaultSpec::loss_permille(5)
        );
    }
}
