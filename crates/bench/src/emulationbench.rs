//! Shared pieces of the emulation benchmark (`bench_emulation`): paired
//! emulated-vs-model estimator cells and the gate document.
//!
//! Every gate row is a *paired* comparison: one [`EmulationSpec`] cell
//! and its synchronous [`RunSpec`] twin share n, k, trees, faults,
//! budget, replicas and base seed, so replica `r` of both sides runs
//! against the identical tree and fault streams and the emulated/model
//! completion ratio isolates the protocol knobs' cost. With every knob
//! unconstrained the ratio is exactly 1 — the bench-level face of the
//! crate's round-for-round pinning contract.
//!
//! The gate has the standard two halves (see [`crate::gate`]):
//!
//! * **paired estimator cells** — both sides of every row are seeded
//!   replica pools, so their integer statistics (`completed`,
//!   `censored`, `total_rounds`, each measured emulated *and* model)
//!   are exact and drift against
//!   `results/BENCH_emulation_baseline.json` is a correctness failure
//!   that is *never* skipped;
//! * **grid wall** — the emulated side's wall time normalized per
//!   executed emulated replica round, gated at +25% and skippable via
//!   `TREECAST_BENCH_GATE=off`.
//!
//! `--smoke` (quick tier) measures a three-row subset and skips the
//! baseline comparison; the full grid backs the checked-in baseline.

use std::time::Instant;

use serde::Serialize;
use treecast_emulation::{EmulationSpec, GossipKnobs};
use treecast_montecarlo::{estimate, estimate_from, FaultSpec, RunSpec, TreeSpec};

use crate::gate::{GateReport, Wall};

/// Network size of every gated row: the montecarlo gate's size, so the
/// model twins land in well-charted dense-engine territory.
pub const GATE_N: usize = 64;

/// Replicas per gated cell (each row runs this many emulated *and* this
/// many synchronous replicas).
pub const GATE_REPLICAS: usize = 24;

/// Base seed shared by both sides of every row — the sharing is what
/// makes the rows paired comparisons.
pub const GATE_SEED: u64 = 0xE15_BEEC;

/// Censoring budget of the static-path rows (diameter regime).
pub const GATE_PATH_BUDGET: u64 = 768;

/// Censoring budget of the seeded-uniform rows (O(log n) regime).
pub const GATE_SEEDED_BUDGET: u64 = 192;

/// Worker threads for the gate runs. The statistics are bit-identical
/// for any count (see `tests/determinism.rs`); fixing one keeps the
/// wall half comparable across runs.
pub const GATE_THREADS: usize = 4;

/// The seeded fault cocktail of the faulty rows: loss and dropout both
/// below the n = 64 critical rates, so the cells complete and the
/// ratios stay well-defined.
#[must_use]
pub fn gate_cocktail() -> FaultSpec {
    FaultSpec {
        loss_permille: 40,
        dropout_permille: 30,
        dropout_rounds: 2,
        ..FaultSpec::default()
    }
}

/// One measured emulated-vs-model row.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PairedMeasurement {
    /// Workload label (`k-source-broadcast(k=…)`), shared by both sides.
    pub workload: String,
    /// Emulated source label (`emulated(static(path), bw=2)` …) — the
    /// knobs live here, so it keys the row uniquely.
    pub source: String,
    /// Fault-mix label (`no-faults`, `loss=4%,drop=3%x2`, …).
    pub faults: String,
    /// Network size.
    pub n: usize,
    /// Replica count per side.
    pub replicas: u64,
    /// Censoring budget per side.
    pub budget: u64,
    /// Emulated replicas completed within budget (exact gate cell).
    pub emu_completed: u64,
    /// Emulated replicas censored at the budget (exact gate cell).
    pub emu_censored: u64,
    /// Sum of completed emulated replicas' rounds (exact gate cell).
    pub emu_total_rounds: u64,
    /// Model replicas completed within budget (exact gate cell).
    pub model_completed: u64,
    /// Model replicas censored at the budget (exact gate cell).
    pub model_censored: u64,
    /// Sum of completed model replicas' rounds (exact gate cell).
    pub model_total_rounds: u64,
    /// Mean emulated completion rounds (-1.0 when nothing completed).
    pub emu_mean: f64,
    /// Mean model completion rounds (-1.0 when nothing completed).
    pub model_mean: f64,
    /// Emulated/model completion ratio over the means (-1.0 when either
    /// side has no completions). Unconstrained rows pin this at 1.0.
    pub ratio: f64,
    /// Emulated side's wall time, ms — the wall-gate numerator.
    pub emu_wall_ms: f64,
    /// Model side's wall time, ms (informational).
    pub model_wall_ms: f64,
}

impl PairedMeasurement {
    /// Rounds executed by the emulated replica pool (completed rounds
    /// plus budget-capped censored replicas) — the wall normalizer.
    #[must_use]
    pub fn emu_executed_rounds(&self) -> u64 {
        self.emu_total_rounds + self.emu_censored * self.budget
    }
}

/// One gate row's configuration: the emulated cell plus its synchronous
/// twin, built from the same shared parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GatePair {
    /// The emulated side.
    pub emulated: EmulationSpec,
    /// The synchronous twin.
    pub model: RunSpec,
}

/// Builds one paired row: both sides share everything except the
/// protocol knobs, which only the emulated side has.
#[must_use]
pub fn gate_pair(k: usize, trees: TreeSpec, faults: FaultSpec, knobs: GossipKnobs) -> GatePair {
    let budget = match trees {
        TreeSpec::Path | TreeSpec::Star => GATE_PATH_BUDGET,
        TreeSpec::SeededUniform => GATE_SEEDED_BUDGET,
    };
    GatePair {
        emulated: EmulationSpec::new(GATE_N, k, trees, faults, knobs)
            .with_replicas(GATE_REPLICAS)
            .with_budget(budget)
            .with_seed(GATE_SEED),
        model: RunSpec::new(GATE_N, k, trees, faults)
            .with_replicas(GATE_REPLICAS)
            .with_budget(budget)
            .with_seed(GATE_SEED),
    }
}

/// Measures one paired row on [`GATE_THREADS`] workers.
#[must_use]
pub fn measure_pair(pair: &GatePair) -> PairedMeasurement {
    let started = Instant::now();
    let emu = estimate_from(&pair.emulated, GATE_THREADS);
    let emu_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let started = Instant::now();
    let model = estimate(&pair.model, GATE_THREADS);
    let model_wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mean = |s: &treecast_montecarlo::RoundStats| {
        if s.completed() > 0 {
            s.mean()
        } else {
            -1.0
        }
    };
    let (emu_mean, model_mean) = (mean(&emu.stats), mean(&model.stats));
    PairedMeasurement {
        workload: emu.workload,
        source: emu.source,
        faults: emu.faults,
        n: emu.n,
        replicas: emu.stats.replicas(),
        budget: emu.round_budget,
        emu_completed: emu.stats.completed(),
        emu_censored: emu.stats.censored(),
        emu_total_rounds: emu.stats.total_rounds(),
        model_completed: model.stats.completed(),
        model_censored: model.stats.censored(),
        model_total_rounds: model.stats.total_rounds(),
        emu_mean,
        model_mean,
        ratio: if emu_mean > 0.0 && model_mean > 0.0 {
            emu_mean / model_mean
        } else {
            -1.0
        },
        emu_wall_ms,
        model_wall_ms,
    }
}

/// The gated row grid: the three workload families ({broadcast,
/// gossip, k-source}) × {quiet, seeded cocktail} × a knob ladder from
/// unconstrained down to a single-payload bandwidth cap. `smoke`
/// measures a three-row subset.
#[must_use]
pub fn gate_pairs(smoke: bool) -> Vec<GatePair> {
    let free = GossipKnobs::unconstrained();
    if smoke {
        return vec![
            gate_pair(1, TreeSpec::Path, FaultSpec::none(), free),
            gate_pair(1, TreeSpec::Star, FaultSpec::none(), free.with_bandwidth(1)),
            gate_pair(GATE_N, TreeSpec::SeededUniform, gate_cocktail(), free),
        ];
    }
    let mut pairs = Vec::new();
    for faults in [FaultSpec::none(), gate_cocktail()] {
        // Broadcast family: k = 1 on the static path (diameter regime —
        // a quiet path's per-round deficit is one token per edge, so the
        // caps only bind once faults force re-dissemination) and the
        // static star, where a bandwidth cap serializes the center.
        for knobs in [
            free,
            free.with_bandwidth(4),
            free.with_bandwidth(1),
            free.with_fanout(2).with_batch(4),
        ] {
            pairs.push(gate_pair(1, TreeSpec::Path, faults, knobs));
        }
        for knobs in [free, free.with_bandwidth(1)] {
            pairs.push(gate_pair(1, TreeSpec::Star, faults, knobs));
        }
        // Gossip family: k = n on seeded uniform trees (log regime).
        for knobs in [free, free.with_bandwidth(8)] {
            pairs.push(gate_pair(GATE_N, TreeSpec::SeededUniform, faults, knobs));
        }
        // k-source family: k = 8 on seeded uniform trees.
        for knobs in [free, free.with_bandwidth(4)] {
            pairs.push(gate_pair(8, TreeSpec::SeededUniform, faults, knobs));
        }
    }
    pairs
}

/// Measures the full gate grid (or the smoke subset).
#[must_use]
pub fn measure_gate_rows(smoke: bool) -> Vec<PairedMeasurement> {
    gate_pairs(smoke).iter().map(measure_pair).collect()
}

/// The wall-gate statistic of a measured grid: the emulated side's
/// total wall time over its total executed replica rounds, in ns per
/// round. The model side is excluded — `bench_montecarlo` already
/// gates the synchronous engine's wall.
#[must_use]
pub fn grid_ns_per_round(rows: &[PairedMeasurement]) -> f64 {
    let wall_ms: f64 = rows.iter().map(|r| r.emu_wall_ms).sum();
    let rounds: u64 = rows
        .iter()
        .map(PairedMeasurement::emu_executed_rounds)
        .sum();
    wall_ms * 1e6 / rounds.max(1) as f64
}

/// The `BENCH_emulation.json` gate document: both sides' `completed`,
/// `censored` and `total_rounds` of every row are exact cells; the wall
/// is [`grid_ns_per_round`].
#[must_use]
pub fn gate_report(rows: &[PairedMeasurement]) -> GateReport {
    GateReport {
        bench: "emulation".into(),
        exact: rows
            .iter()
            .flat_map(|r| {
                let key =
                    |stat| format!("{}/{}/{}/n={}/{stat}", r.workload, r.source, r.faults, r.n);
                [
                    (key("emu_completed"), r.emu_completed as i64),
                    (key("emu_censored"), r.emu_censored as i64),
                    (key("emu_total_rounds"), r.emu_total_rounds as i64),
                    (key("model_completed"), r.model_completed as i64),
                    (key("model_censored"), r.model_censored as i64),
                    (key("model_total_rounds"), r.model_total_rounds as i64),
                ]
            })
            .collect(),
        wall: Wall {
            label: format!("emulation grid n={GATE_N}"),
            value: grid_ns_per_round(rows),
            unit: "ns/replica-round".into(),
        },
        info: rows.to_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<PairedMeasurement> {
        vec![
            PairedMeasurement {
                workload: "k-source-broadcast(k=1)".into(),
                source: "emulated(static(path))".into(),
                faults: "no-faults".into(),
                n: 64,
                replicas: 24,
                budget: 768,
                emu_completed: 24,
                emu_censored: 0,
                emu_total_rounds: 24 * 63,
                model_completed: 24,
                model_censored: 0,
                model_total_rounds: 24 * 63,
                emu_mean: 63.0,
                model_mean: 63.0,
                ratio: 1.0,
                emu_wall_ms: 5.0,
                model_wall_ms: 2.0,
            },
            PairedMeasurement {
                workload: "k-source-broadcast(k=1)".into(),
                source: "emulated(static(path), bw=1)".into(),
                faults: "no-faults".into(),
                n: 64,
                replicas: 24,
                budget: 768,
                emu_completed: 0,
                emu_censored: 24,
                emu_total_rounds: 0,
                model_completed: 24,
                model_censored: 0,
                model_total_rounds: 24 * 63,
                emu_mean: -1.0,
                model_mean: 63.0,
                ratio: -1.0,
                emu_wall_ms: 40.0,
                model_wall_ms: 2.0,
            },
        ]
    }

    #[test]
    fn report_roundtrips_through_parsers() {
        let rows = sample();
        let report = gate_report(&rows);
        assert_eq!(report.exact.0.len(), 12, "six exact stats per row");
        assert_eq!(
            report.exact.0[0],
            (
                "k-source-broadcast(k=1)/emulated(static(path))/no-faults/n=64/emu_completed"
                    .to_string(),
                24
            )
        );
        assert!(report.exact.0[5].0.ends_with("/model_total_rounds"));
        assert_eq!(report.exact.0[5].1, 24 * 63);
        assert_eq!(report.wall.value, grid_ns_per_round(&rows));
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<PairedMeasurement> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rows);
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = serde::json::to_string_pretty(&gate_report(&sample()));
        assert!(doc.starts_with("{\n  \"bench\": \"emulation\",\n  \"exact\": {"));
        assert!(doc.contains("\"ratio\": -1.0"), "undefined ratios stay -1");
    }

    #[test]
    fn executed_rounds_charges_censored_replicas_the_budget() {
        let rows = sample();
        assert_eq!(rows[0].emu_executed_rounds(), 24 * 63);
        assert_eq!(rows[1].emu_executed_rounds(), 24 * 768);
    }

    #[test]
    fn smoke_pairs_are_a_fast_subset_with_shared_seeds() {
        let smoke = gate_pairs(true);
        let full = gate_pairs(false);
        assert_eq!(smoke.len(), 3);
        assert!(full.len() > smoke.len());
        for pair in full.iter().chain(&smoke) {
            assert_eq!(pair.emulated.n, pair.model.n);
            assert_eq!(pair.emulated.k, pair.model.k);
            assert_eq!(pair.emulated.faults, pair.model.faults);
            assert_eq!(pair.emulated.round_budget, pair.model.round_budget);
            assert_eq!(pair.emulated.replicas, pair.model.replicas);
            assert_eq!(
                pair.emulated.base_seed, pair.model.base_seed,
                "pairing needs shared seeds"
            );
        }
    }

    #[test]
    fn full_grid_covers_all_three_workload_families_and_both_fault_mixes() {
        let pairs = gate_pairs(false);
        let ks: std::collections::BTreeSet<usize> = pairs.iter().map(|p| p.emulated.k).collect();
        assert_eq!(ks.into_iter().collect::<Vec<_>>(), vec![1, 8, GATE_N]);
        assert!(pairs.iter().any(|p| p.emulated.faults.is_quiet()));
        assert!(pairs.iter().any(|p| !p.emulated.faults.is_quiet()));
        assert!(pairs.iter().any(|p| p.emulated.knobs.is_unconstrained()));
        assert!(pairs.iter().any(|p| !p.emulated.knobs.is_unconstrained()));
    }

    #[test]
    fn unconstrained_quiet_row_is_the_model_exactly() {
        // The pinning contract at bench level: the unconstrained quiet
        // smoke row's emulated statistics equal the model's, and the
        // ratio is exactly 1.
        let row = measure_pair(&gate_pairs(true)[0]);
        assert_eq!(row.emu_completed, row.model_completed);
        assert_eq!(row.emu_censored, row.model_censored);
        assert_eq!(row.emu_total_rounds, row.model_total_rounds);
        assert_eq!(row.emu_completed, GATE_REPLICAS as u64);
        assert_eq!(row.emu_total_rounds, (GATE_REPLICAS * (GATE_N - 1)) as u64);
        assert!((row.ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_one_star_row_measures_deterministically_and_lags_the_model() {
        // Smoke row 1: the star with a single-payload bandwidth cap. The
        // model broadcasts in 1 round; the capped center ships one token
        // per round, so every emulated replica takes n − 1.
        let pair = gate_pairs(true)[1].clone();
        let a = measure_pair(&pair);
        let b = measure_pair(&pair);
        let key = |m: &PairedMeasurement| {
            (
                m.emu_completed,
                m.emu_censored,
                m.emu_total_rounds,
                m.model_total_rounds,
            )
        };
        assert_eq!(key(&a), key(&b), "wall varies; the exact cells must not");
        assert_eq!(a.model_total_rounds, GATE_REPLICAS as u64);
        assert_eq!(a.emu_total_rounds, (GATE_REPLICAS * (GATE_N - 1)) as u64);
        assert!((a.ratio - (GATE_N - 1) as f64).abs() < 1e-9, "{a:?}");
    }
}
