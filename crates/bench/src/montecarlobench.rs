//! Shared pieces of the Monte Carlo benchmark (`bench_montecarlo`): the
//! gated estimator cells and the gate document.
//!
//! The gate has the standard two halves (see [`crate::gate`]):
//!
//! * **estimator cells** — every row is a seeded replica pool, so its
//!   integer statistics (`completed`, `censored`, `total_rounds`) are
//!   exact and drift against `results/BENCH_montecarlo_baseline.json`
//!   is a correctness failure that is *never* skipped. The floats
//!   (mean, quantiles) are derived from the same outcomes, so gating
//!   the integers pins them too without float-comparison hazards;
//! * **sweep wall** — the total wall time of the gate's loss sweep,
//!   normalized per executed replica round, gated at +25% and
//!   skippable via `TREECAST_BENCH_GATE=off`.
//!
//! `--smoke` (quick tier) measures a three-cell subset and skips the
//! baseline comparison; the full grid backs the checked-in baseline.

use std::time::Instant;

use serde::Serialize;
use treecast_montecarlo::{estimate, FaultSpec, RunSpec, TreeSpec};

use crate::gate::{GateReport, Wall};

/// Network size of every gated cell: dense-engine territory, big enough
/// that the loss transition is sharp.
pub const GATE_N: usize = 64;

/// Replicas per gated cell.
pub const GATE_REPLICAS: usize = 48;

/// Base seed of every gated cell; fixed so the integer statistics are
/// exact gate material.
pub const GATE_SEED: u64 = 0xE14_BEEC;

/// Censoring budget of every gated cell.
pub const GATE_BUDGET: u64 = 1024;

/// The loss grid of the gated sweep (percent). Brackets the static-path
/// stall transition, which sits near 10% at n = 64: a loss anywhere in
/// the disseminated prefix forces re-dissemination, so the critical
/// per-node rate shrinks as n grows (~50% at n = 12, ~10% here).
pub const GATE_LOSS_GRID: [u32; 6] = [0, 2, 6, 10, 14, 20];

/// Worker threads for the gate runs. The statistics are bit-identical
/// for any count (see `tests/determinism.rs`); fixing one keeps the
/// wall half comparable across runs.
pub const GATE_THREADS: usize = 4;

/// One measured Monte Carlo cell.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CellMeasurement {
    /// Workload label (`k-source-broadcast(k=…)`).
    pub workload: String,
    /// Tree-source label (`static(path)`, `seeded-uniform`).
    pub source: String,
    /// Fault-mix label (`no-faults`, `loss=35%`, …).
    pub faults: String,
    /// Network size.
    pub n: usize,
    /// Replica count.
    pub replicas: u64,
    /// Censoring budget.
    pub budget: u64,
    /// Replicas that completed within budget (exact gate cell).
    pub completed: u64,
    /// Replicas censored at the budget (exact gate cell).
    pub censored: u64,
    /// Sum of completed replicas' rounds (exact gate cell).
    pub total_rounds: u64,
    /// Mean completion rounds over completed replicas (NaN-free: -1.0
    /// when nothing completed).
    pub mean: f64,
    /// 95% normal CI half-width of the mean (-1.0 when undefined).
    pub ci95: f64,
    /// P² median of completed rounds (-1.0 when nothing completed).
    pub p50: f64,
    /// P² 90th percentile (-1.0 when nothing completed).
    pub p90: f64,
    /// Censored fraction.
    pub stall_rate: f64,
    /// Cell wall time, ms.
    pub wall_ms: f64,
}

impl CellMeasurement {
    /// Rounds executed by the cell's replica pool (completed rounds plus
    /// budget-capped censored replicas) — the wall normalizer.
    #[must_use]
    pub fn executed_rounds(&self) -> u64 {
        self.total_rounds + self.censored * self.budget
    }
}

/// Runs one cell on [`GATE_THREADS`] workers and wraps the estimate in a
/// [`CellMeasurement`].
pub fn measure_cell(spec: &RunSpec) -> CellMeasurement {
    let started = Instant::now();
    let est = estimate(spec, GATE_THREADS);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let finite = |v: Option<f64>| v.unwrap_or(-1.0);
    CellMeasurement {
        workload: est.workload,
        source: est.source,
        faults: est.faults,
        n: est.n,
        replicas: est.stats.replicas(),
        budget: est.round_budget,
        completed: est.stats.completed(),
        censored: est.stats.censored(),
        total_rounds: est.stats.total_rounds(),
        mean: if est.stats.completed() > 0 {
            est.stats.mean()
        } else {
            -1.0
        },
        ci95: if est.stats.completed() > 1 {
            est.stats.ci95()
        } else {
            -1.0
        },
        p50: finite(est.stats.p50()),
        p90: finite(est.stats.p90()),
        stall_rate: est.stats.stall_rate(),
        wall_ms,
    }
}

/// The gated cell grid. The loss sweep (static path, k = 1) brackets the
/// stall transition; the seeded-uniform rows cover the k ≥ 2 regime the
/// paper proves diverges on static trees (root rotation makes it
/// finite). `smoke` measures a three-cell subset.
#[must_use]
pub fn gate_specs(smoke: bool) -> Vec<RunSpec> {
    let path_cell = |loss: u32| {
        RunSpec::new(GATE_N, 1, TreeSpec::Path, FaultSpec::loss(loss))
            .with_replicas(GATE_REPLICAS)
            .with_budget(GATE_BUDGET)
            .with_seed(GATE_SEED)
    };
    if smoke {
        return vec![
            path_cell(0),
            path_cell(10),
            RunSpec::new(GATE_N, 2, TreeSpec::SeededUniform, FaultSpec::loss(10))
                .with_replicas(GATE_REPLICAS)
                .with_budget(GATE_BUDGET)
                .with_seed(GATE_SEED),
        ];
    }
    let mut specs: Vec<RunSpec> = GATE_LOSS_GRID.iter().map(|&p| path_cell(p)).collect();
    for (k, faults) in [
        (2, FaultSpec::loss(10)),
        (2, FaultSpec::dropout(10, 2)),
        (GATE_N / 2, FaultSpec::loss(10)),
        (GATE_N / 2, FaultSpec::rotation(1)),
    ] {
        specs.push(
            RunSpec::new(GATE_N, k, TreeSpec::SeededUniform, faults)
                .with_replicas(GATE_REPLICAS)
                .with_budget(GATE_BUDGET)
                .with_seed(GATE_SEED),
        );
    }
    specs
}

/// Measures the full gate grid (or the smoke subset).
#[must_use]
pub fn measure_gate_rows(smoke: bool) -> Vec<CellMeasurement> {
    gate_specs(smoke).iter().map(measure_cell).collect()
}

/// The wall-gate statistic of a measured grid: total wall time over
/// total executed replica rounds, in ns per round. Normalizing by
/// executed rounds keeps the statistic meaningful if the grid changes
/// shape.
#[must_use]
pub fn sweep_ns_per_round(rows: &[CellMeasurement]) -> f64 {
    let wall_ms: f64 = rows.iter().map(|r| r.wall_ms).sum();
    let rounds: u64 = rows.iter().map(CellMeasurement::executed_rounds).sum();
    wall_ms * 1e6 / rounds.max(1) as f64
}

/// The `BENCH_montecarlo.json` gate document: each cell's `completed`,
/// `censored` and `total_rounds` are exact cells; the wall is
/// [`sweep_ns_per_round`].
#[must_use]
pub fn gate_report(rows: &[CellMeasurement]) -> GateReport {
    GateReport {
        bench: "montecarlo".into(),
        exact: rows
            .iter()
            .flat_map(|r| {
                let key =
                    |stat| format!("{}/{}/{}/n={}/{stat}", r.workload, r.source, r.faults, r.n);
                [
                    (key("completed"), r.completed as i64),
                    (key("censored"), r.censored as i64),
                    (key("total_rounds"), r.total_rounds as i64),
                ]
            })
            .collect(),
        wall: Wall {
            label: format!("montecarlo grid n={GATE_N}"),
            value: sweep_ns_per_round(rows),
            unit: "ns/replica-round".into(),
        },
        info: rows.to_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<CellMeasurement> {
        vec![
            CellMeasurement {
                workload: "k-source-broadcast(k=1)".into(),
                source: "static(path)".into(),
                faults: "no-faults".into(),
                n: 64,
                replicas: 48,
                budget: 1024,
                completed: 48,
                censored: 0,
                total_rounds: 48 * 63,
                mean: 63.0,
                ci95: 0.0,
                p50: 63.0,
                p90: 63.0,
                stall_rate: 0.0,
                wall_ms: 5.0,
            },
            CellMeasurement {
                workload: "k-source-broadcast(k=1)".into(),
                source: "static(path)".into(),
                faults: "loss=80%".into(),
                n: 64,
                replicas: 48,
                budget: 1024,
                completed: 0,
                censored: 48,
                total_rounds: 0,
                mean: -1.0,
                ci95: -1.0,
                p50: -1.0,
                p90: -1.0,
                stall_rate: 1.0,
                wall_ms: 80.0,
            },
        ]
    }

    #[test]
    fn report_roundtrips_through_parsers() {
        let rows = sample();
        let report = gate_report(&rows);
        assert_eq!(report.exact.0.len(), 6, "three exact stats per row");
        assert_eq!(
            report.exact.0[0],
            (
                "k-source-broadcast(k=1)/static(path)/no-faults/n=64/completed".to_string(),
                48
            )
        );
        assert!(report.exact.0[5].0.ends_with("/loss=80%/n=64/total_rounds"));
        assert_eq!(report.exact.0[5].1, 0);
        assert_eq!(report.wall.value, sweep_ns_per_round(&rows));
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<CellMeasurement> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rows);
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = serde::json::to_string_pretty(&gate_report(&sample()));
        assert!(doc.starts_with("{\n  \"bench\": \"montecarlo\",\n  \"exact\": {"));
        assert!(doc.contains("\"unit\": \"ns/replica-round\""));
    }

    #[test]
    fn executed_rounds_charges_censored_replicas_the_budget() {
        let rows = sample();
        assert_eq!(rows[0].executed_rounds(), 48 * 63);
        assert_eq!(rows[1].executed_rounds(), 48 * 1024);
    }

    #[test]
    fn smoke_specs_are_a_fast_subset() {
        let smoke = gate_specs(true);
        let full = gate_specs(false);
        assert_eq!(smoke.len(), 3);
        assert!(full.len() > smoke.len());
        assert!(full.iter().all(|s| s.n == GATE_N));
        assert!(full.iter().all(|s| s.replicas == GATE_REPLICAS));
    }

    #[test]
    fn smoke_cells_measure_deterministically() {
        let specs = gate_specs(true);
        let a = measure_cell(&specs[0]);
        let b = measure_cell(&specs[0]);
        assert_eq!(a.completed, 48, "fault-free cell completes everywhere");
        assert_eq!(a.total_rounds, 48 * 63, "path diameter, every replica");
        let key = |m: &CellMeasurement| {
            (
                m.workload.clone(),
                m.faults.clone(),
                m.completed,
                m.censored,
                m.total_rounds,
            )
        };
        assert_eq!(key(&a), key(&b), "wall varies; the exact cells must not");
    }
}
