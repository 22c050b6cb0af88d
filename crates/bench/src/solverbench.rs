//! Shared pieces of the exact-solver benchmark: the measurement record
//! and the gate document.

use serde::Serialize;

use crate::gate::{ExactCells, GateReport, Verdict, Wall};

/// The size whose wall time the CI gate compares (largest quick size —
/// big enough to be stable, small enough for every CI run).
pub const SOLVER_GATE_N: usize = 6;

/// One `(n, result, timing)` row of the solver benchmark.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverMeasurement {
    /// Number of processes.
    pub n: usize,
    /// The exact `t*(T_n)` the solve produced.
    pub t_star: u64,
    /// `bounds::lower_bound(n)`, the Theorem 3.1 sandwich's floor.
    pub lower_bound: u64,
    /// `bounds::upper_bound(n)`, the sandwich's ceiling.
    pub upper_bound: u64,
    /// Distinct canonical states explored.
    pub states: usize,
    /// Raw successor evaluations (realizable vectors emitted, pre
    /// cross-root dedup).
    pub transitions: u64,
    /// Best (minimum) wall time of one full solve, milliseconds.
    pub wall_ms: f64,
    /// Solver threads (`--threads`; 0 = all available).
    pub threads: usize,
}

/// The `BENCH_solver.json` gate document: each size's `t*` is an exact
/// cell; the wall is the [`SOLVER_GATE_N`] solve.
///
/// # Panics
///
/// If `rows` lack the [`SOLVER_GATE_N`] row.
pub fn gate_report(rows: &[SolverMeasurement]) -> GateReport {
    let gated = rows
        .iter()
        .find(|r| r.n == SOLVER_GATE_N)
        .expect("the gate size is measured");
    GateReport {
        bench: "solver".into(),
        exact: rows
            .iter()
            .map(|r| (format!("t_star/n={}", r.n), r.t_star as i64))
            .collect(),
        wall: Wall {
            label: format!("solve/{SOLVER_GATE_N}"),
            value: gated.wall_ms,
            unit: "ms".into(),
        },
        info: rows.to_value(),
    }
}

/// Gates `current` against the part of `baseline` it measured: `--quick`
/// stops below the baseline's largest size, so only the sizes present in
/// both are compared — and a baseline sharing none of them fails, since
/// the exact half would be vacuous.
pub fn check_measured(current: &GateReport, baseline: &GateReport) -> Verdict {
    let measured: ExactCells = baseline
        .exact
        .0
        .iter()
        .filter(|(key, _)| current.exact.0.iter().any(|(k, _)| k == key))
        .cloned()
        .collect();
    if measured.0.is_empty() {
        return Verdict {
            passed: Vec::new(),
            failures: vec!["MISSING: the baseline has no t_star cell for any measured \
                            size — the exact gate would be vacuous"
                .into()],
        };
    }
    let scoped = GateReport {
        exact: measured,
        ..baseline.clone()
    };
    crate::gate::check(current, &scoped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SolverMeasurement> {
        vec![
            SolverMeasurement {
                n: 5,
                t_star: 5,
                lower_bound: 5,
                upper_bound: 12,
                states: 817,
                transitions: 8161,
                wall_ms: 3.5,
                threads: 1,
            },
            SolverMeasurement {
                n: 6,
                t_star: 7,
                lower_bound: 7,
                upper_bound: 14,
                states: 112_620,
                transitions: 5_535_810,
                wall_ms: 2040.0,
                threads: 1,
            },
        ]
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let report = gate_report(&rows());
        assert_eq!(
            report.exact.0,
            vec![("t_star/n=5".to_string(), 5), ("t_star/n=6".to_string(), 7)]
        );
        assert_eq!(
            (report.wall.value, report.wall.unit.as_str()),
            (2040.0, "ms")
        );
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<SolverMeasurement> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rows());
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = serde::json::to_string_pretty(&gate_report(&rows()));
        assert!(doc.starts_with("{\n  \"bench\": \"solver\",\n  \"exact\": {"));
        assert!(doc.contains("\"t_star/n=6\": 7"));
        assert!(doc.contains("\"threads\": 1"));
    }

    #[test]
    fn quick_check_gates_only_the_measured_sizes() {
        // --quick measures fewer sizes than the baseline holds: only the
        // shared sizes are gated, and a baseline sharing none fails.
        let quick = gate_report(&rows()[1..]);
        assert!(check_measured(&quick, &gate_report(&rows()))
            .failures
            .is_empty());
        let mut disjoint = gate_report(&rows());
        disjoint.exact = [("t_star/n=7".to_string(), 8)].into_iter().collect();
        let verdict = check_measured(&quick, &disjoint);
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("vacuous"));
    }

    #[test]
    fn report_embeds_the_theorem_bounds() {
        let info = gate_report(&rows()).info;
        let row = match &info {
            serde::Value::Array(rows) => &rows[1],
            other => panic!("info is the row table, got {other:?}"),
        };
        assert_eq!(row.field("lower_bound"), Ok(&serde::Value::Int(7)));
        assert_eq!(
            row.field("upper_bound"),
            Ok(&serde::Value::Int(
                treecast_core::bounds::upper_bound(6).into()
            ))
        );
    }
}
