//! Shared pieces of the compose benchmark: the workload generator, the
//! measurement record, and the gate document.

use rand::rngs::StdRng;
use rand::Rng;
use serde::Serialize;
use treecast_bitmatrix::BoolMatrix;

use crate::gate::{ExactCells, GateReport, Wall};

/// The measured workload: a reflexive matrix with roughly
/// `density_percent`% of the off-diagonal entries set.
///
/// One definition shared by `benches/compose.rs` and the `bench_compose`
/// gate binary, so the criterion numbers and the JSON gate can never
/// silently measure different matrices.
pub fn random_matrix(n: usize, density_percent: u32, rng: &mut StdRng) -> BoolMatrix {
    let mut m = BoolMatrix::identity(n);
    for x in 0..n {
        for y in 0..n {
            if rng.gen_ratio(density_percent, 100) {
                m.set(x, y, true);
            }
        }
    }
    m
}

/// One (size, timing) row of the compose benchmark.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ComposeMeasurement {
    /// Number of nodes.
    pub n: usize,
    /// Best (minimum) ~1 ms-batch mean wall time of one `compose_into`
    /// call — robust against background load on shared hosts.
    pub ns_per_op: f64,
    /// Left-operand edges processed per second (`edges · 1e9 / ns_per_op`).
    pub edges_per_sec: f64,
    /// The PR-1 seed implementation's median on the reference host.
    pub seed_ns_per_op: f64,
    /// `seed_ns_per_op / ns_per_op`.
    pub speedup_vs_seed: f64,
}

/// The size whose `compose_into` time the CI gate compares.
pub const GATE_N: usize = 1024;

/// The `BENCH_compose.json` gate document: no exact cells (timing only);
/// the wall is the [`GATE_N`] composition at `density_percent`.
///
/// # Panics
///
/// If `rows` lack the [`GATE_N`] row.
pub fn gate_report(density_percent: u32, rows: &[ComposeMeasurement]) -> GateReport {
    let gated = rows
        .iter()
        .find(|r| r.n == GATE_N)
        .expect("the gate size is measured");
    GateReport {
        bench: "compose".into(),
        exact: ExactCells::default(),
        wall: Wall {
            label: format!("compose_into/{GATE_N} density={density_percent}%"),
            value: gated.ns_per_op,
            unit: "ns/op".into(),
        },
        info: rows.to_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<ComposeMeasurement> {
        vec![
            ComposeMeasurement {
                n: 64,
                ns_per_op: 700.0,
                edges_per_sec: 1e9,
                seed_ns_per_op: 3834.0,
                speedup_vs_seed: 5.48,
            },
            ComposeMeasurement {
                n: 1024,
                ns_per_op: 200_000.0,
                edges_per_sec: 5e8,
                seed_ns_per_op: 904_202.0,
                speedup_vs_seed: 4.52,
            },
        ]
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let report = gate_report(10, &rows());
        assert!(report.exact.0.is_empty(), "timing only");
        assert_eq!(report.wall.label, "compose_into/1024 density=10%");
        assert_eq!(report.wall.value, 200_000.0);
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<ComposeMeasurement> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rows());
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = serde::json::to_string_pretty(&gate_report(10, &rows()));
        assert!(doc.starts_with("{\n  \"bench\": \"compose\",\n  \"exact\": {},"));
        assert_eq!(doc.matches("\"ns_per_op\"").count(), 2);
    }
}
