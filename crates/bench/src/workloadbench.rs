//! Shared pieces of the workload benchmark (`bench_workloads`): the
//! deterministic round-count grid, the batched-stepping wall-time
//! measurement record, and the gate document.
//!
//! The gate has two halves, mirroring the solver gate:
//!
//! * **round counts** — every `(workload, adversary, n)` cell is a
//!   deterministic simulation, so the recorded value is exact and any
//!   drift against `results/BENCH_workloads_baseline.json` is a
//!   correctness failure that is *never* skipped;
//! * **wall time** — the `TrackedTokens` batched stepping throughput
//!   (one `BoolMatrix::gather_union_prefix` of the holder rows along the
//!   round's parent map) is gated at +25%, skippable via
//!   `TREECAST_BENCH_GATE=off`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use treecast_adversary::{GreedyAdversary, MinDisseminated, StructuredPool};
use treecast_core::{
    run_workload, Broadcast, Gossip, KBroadcast, KSourceBroadcast, SimulationConfig, StaticSource,
    TreeSource, Workload,
};
use treecast_nonsplit::{workload_time_nonsplit, PiecewiseNonsplit};
use treecast_trees::generators;

use crate::gate::{rounds_cell, GateReport, Wall};

/// The deterministic round-count grid: network sizes.
pub const GRID_NS: [usize; 3] = [16, 32, 64];

/// One deterministic cell of the workload grid.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadRound {
    /// Workload name (`broadcast`, `k-broadcast(k=2)`, `gossip`, …).
    pub workload: String,
    /// Adversary name.
    pub adversary: String,
    /// Network size.
    pub n: usize,
    /// Completion round, or `None` when the capped run did not complete
    /// (exact cell `-1`; the expected worst-case outcome for `k ≥ 2`
    /// under tree adversaries).
    pub rounds: Option<u64>,
}

/// The wall-time half of the report: batched `TrackedTokens` stepping.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedStepMeasurement {
    /// Network size.
    pub n: usize,
    /// Tracked tokens (holder rows gathered per round).
    pub k: usize,
    /// Best (minimum) ~1 ms-batch mean wall time of one round, ns.
    pub ns_per_round: f64,
}

/// Before/after record of the gossip-reduction fix: the superseded
/// per-source from-scratch recomposition
/// ([`treecast_core::prefix::gossip_time_naive_per_source`]) against the
/// shared one-composition-per-round prefix stream
/// ([`treecast_core::prefix::run_workload_prefixes`]) on the same
/// schedule. Informational — the shared path's regression coverage is
/// the server bench's wall gate.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GossipReductionMeasurement {
    /// Network size.
    pub n: usize,
    /// Gossip completion round (identical under both reductions).
    pub rounds: u64,
    /// Total wall time of the naive per-source reduction, ns.
    pub naive_total_ns: f64,
    /// Total wall time of the shared prefix reduction, ns.
    pub shared_total_ns: f64,
}

impl GossipReductionMeasurement {
    /// `naive / shared` — how much the shared reduction saves.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.shared_total_ns > 0.0 {
            self.naive_total_ns / self.shared_total_ns
        } else {
            0.0
        }
    }
}

/// Measures both gossip reductions on the rotating-star schedule at `n`
/// (deterministic, completes for every `n ≥ 1`).
///
/// # Panics
///
/// Panics if the two reductions disagree on the completion round — they
/// compute the same quantity by construction.
#[must_use]
pub fn measure_gossip_reduction(n: usize) -> GossipReductionMeasurement {
    let trees: Vec<_> = (0..n).map(|c| generators::star_with_center(n, c)).collect();
    let config = SimulationConfig::for_n(n);

    let start = std::time::Instant::now();
    let naive = treecast_core::prefix::gossip_time_naive_per_source(&trees, config.max_rounds);
    let naive_total_ns = start.elapsed().as_nanos() as f64;

    let start = std::time::Instant::now();
    let mut prefixes = treecast_core::prefix::ComposedPrefixes::new(trees);
    let shared = treecast_core::run_workload_prefixes(&mut prefixes, &Gossip, config);
    let shared_total_ns = start.elapsed().as_nanos() as f64;

    assert_eq!(
        shared.completion_time, naive,
        "the reductions must agree on the gossip time"
    );
    GossipReductionMeasurement {
        n,
        rounds: shared.completion_time.expect("rotating stars gossip"),
        naive_total_ns,
        shared_total_ns,
    }
}

/// The workloads of the deterministic grid at size `n`, in report order.
pub fn grid_workloads(n: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Broadcast),
        Box::new(KBroadcast::new(2)),
        Box::new(KBroadcast::new((n / 2).max(2))),
        Box::new(Gossip),
    ]
}

/// The deterministic grid adversaries, in report order.
///
/// Both are allocation-light and fully deterministic: the static path is
/// the explicit diverging witness for `k ≥ 2`, and greedy descent under
/// [`MinDisseminated`] is the worst-case-searched sequence the `variants`
/// experiment also uses.
pub const GRID_ADVERSARIES: [&str; 2] = ["static-path", "greedy-min-disseminated"];

/// Builds one grid adversary by name.
///
/// # Panics
///
/// Panics on a name outside [`GRID_ADVERSARIES`].
pub fn grid_adversary(n: usize, name: &str) -> Box<dyn TreeSource + Send> {
    match name {
        "static-path" => Box::new(StaticSource::new(generators::path(n))),
        "greedy-min-disseminated" => Box::new(GreedyAdversary::new(
            StructuredPool::new(),
            MinDisseminated::default(),
        )),
        other => panic!("unknown grid adversary {other:?}"),
    }
}

/// Runs the full deterministic grid.
pub fn measure_rounds() -> Vec<WorkloadRound> {
    let mut rows = Vec::new();
    for &n in &GRID_NS {
        for adv_name in GRID_ADVERSARIES {
            for workload in grid_workloads(n) {
                // Fresh adversary per cell, so no run sees another's state.
                let mut source = grid_adversary(n, adv_name);
                let report = run_workload(
                    n,
                    source.as_mut(),
                    workload.as_ref(),
                    SimulationConfig::for_n(n),
                );
                rows.push(WorkloadRound {
                    workload: workload.name(),
                    adversary: adv_name.to_string(),
                    n,
                    rounds: report.completion_time,
                });
            }
        }
        // Seeded c-nonsplit cells: finite, nontrivial, and exactly
        // reproducible round counts — the sharp half of the exact gate
        // (the tree cells are either n − 1 or the consistent >cap).
        for c in [2usize, 8] {
            let variant_workloads: Vec<Box<dyn Workload>> = vec![
                Box::new(KBroadcast::new(n / 2)),
                Box::new(Gossip),
                Box::new(KSourceBroadcast::evenly_spread(n, 2)),
            ];
            for workload in variant_workloads {
                let mut rng = StdRng::seed_from_u64(0xBE_EF);
                let t = workload_time_nonsplit(
                    n,
                    workload.as_ref(),
                    &mut PiecewiseNonsplit::new(c),
                    1_000,
                    &mut rng,
                );
                rows.push(WorkloadRound {
                    workload: workload.name(),
                    adversary: format!("piecewise(c={c}, seed=0xBEEF)"),
                    n,
                    rounds: t,
                });
            }
        }
    }
    rows
}

/// The `BENCH_workloads.json` gate document: every grid cell's
/// completion round is an exact cell; the wall is the tracked stepping.
/// The gossip-reduction record rides along in `info`.
pub fn gate_report(
    rounds: &[WorkloadRound],
    step: &TrackedStepMeasurement,
    reduction: &GossipReductionMeasurement,
) -> GateReport {
    GateReport {
        bench: "workloads".into(),
        exact: rounds
            .iter()
            .map(|r| {
                let key = format!("{}/{}/n={}", r.workload, r.adversary, r.n);
                (key, rounds_cell(r.rounds))
            })
            .collect(),
        wall: Wall {
            label: format!("tracked_step n={} k={}", step.n, step.k),
            value: step.ns_per_round,
            unit: "ns/round".into(),
        },
        info: Value::object([
            ("rounds", rounds.to_value()),
            ("gossip_reduction", reduction.to_value()),
        ]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (
        Vec<WorkloadRound>,
        TrackedStepMeasurement,
        GossipReductionMeasurement,
    ) {
        (
            vec![
                WorkloadRound {
                    workload: "broadcast".into(),
                    adversary: "static-path".into(),
                    n: 16,
                    rounds: Some(15),
                },
                WorkloadRound {
                    workload: "gossip".into(),
                    adversary: "static-path".into(),
                    n: 16,
                    rounds: None,
                },
            ],
            TrackedStepMeasurement {
                n: 1024,
                k: 8,
                ns_per_round: 1234.5,
            },
            GossipReductionMeasurement {
                n: 48,
                rounds: 93,
                naive_total_ns: 5.0e8,
                shared_total_ns: 2.5e5,
            },
        )
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let (rounds, step, reduction) = sample();
        let report = gate_report(&rounds, &step, &reduction);
        assert_eq!(
            report.exact.0,
            vec![
                ("broadcast/static-path/n=16".to_string(), 15),
                ("gossip/static-path/n=16".to_string(), -1),
            ],
            "capped runs are -1; reduction fields are not cells"
        );
        assert_eq!(report.wall.label, "tracked_step n=1024 k=8");
        assert_eq!(report.wall.value, 1234.5);
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<WorkloadRound> =
            serde::Deserialize::from_value(back.info.field("rounds").unwrap()).unwrap();
        assert_eq!(info, rounds);
    }

    #[test]
    fn report_is_json_shaped() {
        let (rounds, step, reduction) = sample();
        let doc = serde::json::to_string_pretty(&gate_report(&rounds, &step, &reduction));
        assert!(doc.starts_with("{\n  \"bench\": \"workloads\",\n  \"exact\": {"));
        assert!(doc.contains("\"naive_total_ns\": 500000000.0,"));
        assert!(doc.contains("\"rounds\": null"), "capped rows keep None");
    }

    #[test]
    fn grid_is_deterministic() {
        // Two measurements of one cell must agree exactly — this is what
        // lets ci.sh enforce round counts with zero tolerance.
        let n = 16;
        let run = || {
            let mut source = grid_adversary(n, "greedy-min-disseminated");
            run_workload(
                n,
                source.as_mut(),
                &KBroadcast::new(2),
                SimulationConfig::for_n(n),
            )
            .completion_time
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gossip_reductions_agree_and_sharing_wins() {
        let m = measure_gossip_reduction(24);
        assert!(m.rounds > 0);
        assert!(
            m.speedup() > 1.0,
            "one shared composition per round must beat per-source recomposition: {m:?}"
        );
    }

    #[test]
    fn grid_covers_the_workload_lattice() {
        let names: Vec<String> = grid_workloads(16).iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            vec![
                "broadcast",
                "k-broadcast(k=2)",
                "k-broadcast(k=8)",
                "gossip"
            ]
        );
    }
}
