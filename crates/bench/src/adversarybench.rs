//! Shared pieces of the adversary-search benchmark (`bench_adversary`):
//! the deterministic beam-plan grid, the planning wall-time
//! measurement, and the gate document.
//!
//! The gate has two halves, mirroring the solver and workload gates:
//!
//! * **round counts** — every `(workload, objective, width, lookahead, n)`
//!   cell is a deterministic offline beam plan replayed through
//!   `run_workload`, so the recorded value is exact and any drift against
//!   `results/BENCH_adversary_baseline.json` is a search-behavior change
//!   that is *never* skipped;
//! * **wall time** — the planning cost of one representative beam
//!   configuration is gated at +25%, skippable via
//!   `TREECAST_BENCH_GATE=off`.

use std::time::Instant;

use serde::Serialize;
use treecast_adversary::{
    beam_search_plan, beam_search_workload_plan, BeamOptions, MinDisseminated, StructuredPool,
    SurvivalObjective, TrackedSearchState,
};
use treecast_core::{
    run_workload, Broadcast, BroadcastState, Gossip, KBroadcast, KSourceBroadcast, SequenceSource,
    SimulationConfig, Workload,
};

use crate::gate::{rounds_cell, GateReport, Wall};

/// One deterministic cell of the beam-plan grid.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PlanRound {
    /// Workload name (`broadcast`, `k-broadcast(k=2)`, `gossip`, …).
    pub workload: String,
    /// Objective driving the search.
    pub objective: String,
    /// Beam width.
    pub width: usize,
    /// Lookahead depth.
    pub lookahead: u32,
    /// Network size.
    pub n: usize,
    /// Completion round of the replayed plan, or `None` when the capped
    /// run did not complete (exact cell `-1`; the expected outcome for
    /// the provably divergent variants).
    pub rounds: Option<u64>,
}

/// The wall-time half of the report: one representative planning run.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanWallMeasurement {
    /// Network size.
    pub n: usize,
    /// Beam width.
    pub width: usize,
    /// Best (minimum) wall time of one full planning call, ns.
    pub ns_per_plan: f64,
}

/// The grid sizes. Small enough for debug CI, big enough that beam lines
/// diverge between widths.
pub const GRID_NS: [usize; 2] = [12, 16];

/// The beam widths measured per cell.
pub const GRID_WIDTHS: [usize; 2] = [1, 8];

fn grid_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Broadcast),
        Box::new(KBroadcast::new(2)),
        Box::new(Gossip),
    ]
}

/// Runs the full deterministic grid: the all-source workload lattice under
/// `MinDisseminated` beams (both widths, plus one lookahead row), a
/// survival-scored broadcast row, and a `k`-source row driving the
/// `TrackedSearchState` path.
pub fn measure_rounds() -> Vec<PlanRound> {
    let mut rows = Vec::new();
    for &n in &GRID_NS {
        let cfg = SimulationConfig::for_n(n);
        for workload in grid_workloads() {
            for &width in &GRID_WIDTHS {
                let mut options = BeamOptions::for_n(n).with_width(width);
                options.max_rounds = cfg.max_rounds;
                let plan = beam_search_workload_plan(
                    &BroadcastState::new(n),
                    &mut StructuredPool::new(),
                    &MinDisseminated::default(),
                    workload.as_ref(),
                    options,
                );
                let mut replay = SequenceSource::new(plan);
                let report = run_workload(n, &mut replay, workload.as_ref(), cfg);
                rows.push(PlanRound {
                    workload: workload.name(),
                    objective: "min-disseminated".into(),
                    width,
                    lookahead: 0,
                    n,
                    rounds: report.completion_time,
                });
            }
        }
        // Depth-1 lookahead on broadcast — the scorer the refactor added.
        let mut options = BeamOptions::for_n(n).with_width(4).with_lookahead(1);
        options.max_rounds = cfg.max_rounds;
        let plan = beam_search_workload_plan(
            &BroadcastState::new(n),
            &mut StructuredPool::new(),
            &MinDisseminated::default(),
            &Broadcast,
            options,
        );
        let mut replay = SequenceSource::new(plan);
        let report = run_workload(n, &mut replay, &Broadcast, cfg);
        rows.push(PlanRound {
            workload: "broadcast".into(),
            objective: "min-disseminated".into(),
            width: 4,
            lookahead: 1,
            n,
            rounds: report.completion_time,
        });
        // Survival-scored broadcast (the classic beam) for continuity.
        let plan = beam_search_plan(
            n,
            &mut StructuredPool::new(),
            BeamOptions::for_n(n).with_width(8),
        );
        let mut replay = SequenceSource::new(plan);
        let report = run_workload(n, &mut replay, &Broadcast, cfg);
        rows.push(PlanRound {
            workload: "broadcast".into(),
            objective: "survival".into(),
            width: 8,
            lookahead: 0,
            n,
            rounds: report.completion_time,
        });
        // k-source row: plans over TrackedSearchState.
        let workload = KSourceBroadcast::evenly_spread(n, 2);
        let mut options = BeamOptions::for_n(n).with_width(4);
        options.max_rounds = cfg.max_rounds;
        let plan = beam_search_workload_plan(
            &TrackedSearchState::new(n, workload.sources()),
            &mut StructuredPool::new(),
            &MinDisseminated::default(),
            &workload,
            options,
        );
        let mut replay = SequenceSource::new(plan);
        let report = run_workload(n, &mut replay, &workload, cfg);
        rows.push(PlanRound {
            workload: Workload::name(&workload),
            objective: "min-disseminated".into(),
            width: 4,
            lookahead: 0,
            n,
            rounds: report.completion_time,
        });
    }
    rows
}

/// Wall-time shape: a survival-scored broadcast plan at `WALL_N`
/// processes, width `WALL_WIDTH` — the planning loop (probe `clone_from`,
/// `score_state`, fingerprint dedup, Rc schedule chains) is the hot path.
/// Kept at a few milliseconds per plan so the best-of-`samples` minimum
/// only needs one quiet scheduling window on a loaded host.
pub const WALL_N: usize = 24;
/// See [`WALL_N`].
pub const WALL_WIDTH: usize = 8;

/// Best-of-`samples` wall time of one full planning call.
pub fn measure_plan_wall(samples: usize) -> PlanWallMeasurement {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let started = Instant::now();
        let plan = beam_search_workload_plan(
            &BroadcastState::new(WALL_N),
            &mut StructuredPool::new(),
            &SurvivalObjective,
            &Broadcast,
            BeamOptions::for_n(WALL_N).with_width(WALL_WIDTH),
        );
        let elapsed = started.elapsed().as_nanos() as f64;
        assert!(!plan.is_empty());
        best = best.min(elapsed);
    }
    PlanWallMeasurement {
        n: WALL_N,
        width: WALL_WIDTH,
        ns_per_plan: best,
    }
}

/// The `BENCH_adversary.json` gate document: every plan cell's
/// completion round is an exact cell; the wall is the planning call.
pub fn gate_report(rounds: &[PlanRound], wall: &PlanWallMeasurement) -> GateReport {
    GateReport {
        bench: "adversary".into(),
        exact: rounds
            .iter()
            .map(|r| {
                let key = format!(
                    "{}/{}/w={}/d={}/n={}",
                    r.workload, r.objective, r.width, r.lookahead, r.n
                );
                (key, rounds_cell(r.rounds))
            })
            .collect(),
        wall: Wall {
            label: format!("survival beam plan n={} w={}", wall.n, wall.width),
            value: wall.ns_per_plan,
            unit: "ns/plan".into(),
        },
        info: rounds.to_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Vec<PlanRound>, PlanWallMeasurement) {
        (
            vec![
                PlanRound {
                    workload: "broadcast".into(),
                    objective: "min-disseminated".into(),
                    width: 8,
                    lookahead: 0,
                    n: 12,
                    rounds: Some(11),
                },
                PlanRound {
                    workload: "gossip".into(),
                    objective: "min-disseminated".into(),
                    width: 1,
                    lookahead: 0,
                    n: 12,
                    rounds: None,
                },
            ],
            PlanWallMeasurement {
                n: 32,
                width: 16,
                ns_per_plan: 123456.5,
            },
        )
    }

    #[test]
    fn report_roundtrips_through_parser() {
        let (rounds, wall) = sample();
        let report = gate_report(&rounds, &wall);
        assert_eq!(
            report.exact.0,
            vec![
                ("broadcast/min-disseminated/w=8/d=0/n=12".to_string(), 11),
                ("gossip/min-disseminated/w=1/d=0/n=12".to_string(), -1),
            ],
            "capped runs are -1"
        );
        assert_eq!(report.wall.label, "survival beam plan n=32 w=16");
        assert_eq!(report.wall.value, 123456.5);
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<PlanRound> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rounds);
    }

    #[test]
    fn report_is_json_shaped() {
        let (rounds, wall) = sample();
        let doc = serde::json::to_string_pretty(&gate_report(&rounds, &wall));
        assert!(doc.starts_with("{\n  \"bench\": \"adversary\",\n  \"exact\": {"));
        assert!(doc.contains("\"unit\": \"ns/plan\""));
    }

    #[test]
    fn grid_is_deterministic() {
        // Two measurements of one cell must agree exactly — this is what
        // lets ci.sh enforce round counts with zero tolerance.
        let run = || {
            let n = 12;
            let plan = beam_search_workload_plan(
                &BroadcastState::new(n),
                &mut StructuredPool::new(),
                &MinDisseminated::default(),
                &KBroadcast::new(2),
                BeamOptions::for_n(n).with_width(8),
            );
            let mut replay = SequenceSource::new(plan);
            run_workload(
                n,
                &mut replay,
                &KBroadcast::new(2),
                SimulationConfig::for_n(12),
            )
            .completion_time
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn grid_covers_widths_objectives_and_tracked_rows() {
        let rows = measure_rounds();
        assert!(rows.iter().any(|r| r.width == 1));
        assert!(rows.iter().any(|r| r.width == 8));
        assert!(rows.iter().any(|r| r.lookahead == 1));
        assert!(rows.iter().any(|r| r.objective == "survival"));
        assert!(rows.iter().any(|r| r.workload.contains("k-source")));
        // Broadcast cells always complete; the divergent variants cap.
        for r in &rows {
            if r.workload == "broadcast" {
                assert!(r.rounds.is_some(), "{r:?}");
            }
        }
    }
}
