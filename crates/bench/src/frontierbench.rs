//! Shared pieces of the frontier-engine benchmark (`bench_frontier`):
//! the scale-run measurements, the peak-RSS readout, and the gate
//! document.
//!
//! The gate has the standard two halves (see [`crate::gate`]):
//!
//! * **round counts** — every row is a deterministic frontier run
//!   (seeded sources, fixed workloads), so completion rounds are exact
//!   and drift against `results/BENCH_frontier_baseline.json` is a
//!   correctness failure that is *never* skipped;
//! * **wall time** — the median per-round cost of [`GATE_REPS`] runs of
//!   the seeded sweep at [`GATE_N`] (k-source spread under seeded
//!   uniform trees) is gated at +25%, skippable via
//!   `TREECAST_BENCH_GATE=off`. One run is ~5 ms, short enough that
//!   host noise moves it by half; the median of several does not. A
//!   host state that lasts a whole process still moves it: on a 2-vCPU
//!   host, processes of one binary read medians in clusters up to 1.7×
//!   apart, and the baseline sits in the slow cluster. So the gate
//!   catches an undo of the node-major frontier rows only while the
//!   host is slow; in its fast state such an undo passes (ROADMAP item
//!   13: gate the minimum over processes, or a per-process ratio against
//!   an in-process reference loop).
//!
//! The baseline records only the smoke sizes: the n = 10⁶ rows run in
//! the release tier, where [`crate::gate::check`]'s
//! extra-current-cells allowance keeps them gate-exempt until a
//! million-node baseline is recorded deliberately.

use std::time::Instant;

use serde::Serialize;
use treecast_core::frontier::{run_workload_frontier, FrontierSource, FrontierState};
use treecast_core::{KSourceBroadcast, SimulationConfig, Workload};
use treecast_trees::generators;

use crate::gate::{rounds_cell, GateReport, Wall};

/// Smoke size: quick-tier CI territory (a second or two, debug build).
pub const SMOKE_N: usize = 10_000;

/// Scale size: the tentpole target, release tier only.
pub const SCALE_N: usize = 1_000_000;

/// The size of the sweep whose per-round wall time the CI gate compares.
pub const GATE_N: usize = SMOKE_N;

/// Runs of the gated sweep; their median ns/round is the gate's wall.
pub const GATE_REPS: usize = 5;

/// Tracked tokens of the sampled gossip-style sweep. All-token gossip is
/// Ω(n²) by construction (every node must *hold* n tokens), so at scale
/// the gossip column is a k-source spread — exact dissemination of k
/// tokens from evenly spaced sources, the dense-equivalent tracked
/// workload.
pub const SWEEP_K: usize = 16;

/// RNG seed of every seeded-uniform scale source; fixed so round counts
/// are exact gate material.
pub const SCALE_SEED: u64 = 0x5CA1E;

/// One measured frontier run.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScaleMeasurement {
    /// Workload name (`broadcast`, `k-source-broadcast(k=16)`, …).
    pub workload: String,
    /// Source label (`static(path)`, `seeded-uniform(seed=…)`).
    pub source: String,
    /// Network size.
    pub n: usize,
    /// Completion round, or `None` if the capped run did not complete
    /// (exact cell `-1`; never expected for these rows).
    pub rounds: Option<u64>,
    /// Total run wall time, ms.
    pub wall_ms: f64,
    /// Mean wall time per executed round, ns.
    pub ns_per_round: f64,
    /// `VmHWM` after the run, KiB (peak RSS of the *process*, so a
    /// high-water mark over everything run so far — see the bench
    /// README's caveats), when the platform exposes it.
    pub peak_rss_kb: Option<u64>,
}

/// Peak resident set size (`VmHWM`) of the current process in KiB, from
/// `/proc/self/status`. `None` where procfs is unavailable (non-Linux).
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|line| {
        line.strip_prefix("VmHWM:")?
            .trim()
            .trim_end_matches("kB")
            .trim()
            .parse()
            .ok()
    })
}

/// Runs one frontier workload and wraps it in a [`ScaleMeasurement`].
pub fn measure_run(
    n: usize,
    mut source: FrontierSource,
    workload: &dyn Workload,
) -> ScaleMeasurement {
    let started = Instant::now();
    let report = run_workload_frontier(n, &mut source, workload, SimulationConfig::for_n(n));
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    ScaleMeasurement {
        workload: report.workload,
        source: report.source,
        n,
        rounds: report.completion_time,
        wall_ms,
        ns_per_round: wall_ms * 1e6 / report.rounds.max(1) as f64,
        peak_rss_kb: peak_rss_kb(),
    }
}

/// The two scale rows of the paper's regime at size `n`:
///
/// * **broadcast** — the root token on the static path, the Θ(n)-round
///   worst-case diameter, where the frontier engine's O(1)-per-round
///   quiet path is the whole story. A single tracked token: on a
///   root-stable source the root's token is exactly the dense broadcast
///   (all-token tracking would make the row Ω(n²) by state size alone);
/// * **k-source sweep** ([`SWEEP_K`] tokens, evenly spread) under seeded
///   uniform random trees — the O(log n)-round gossip-style regime,
///   where every round is a full delta over all n candidates.
pub fn measure_scale_rows(n: usize) -> Vec<ScaleMeasurement> {
    vec![
        measure_run(
            n,
            FrontierSource::fixed(generators::path(n)),
            &KSourceBroadcast::new(vec![0]),
        ),
        measure_sweep(n),
    ]
}

/// The seeded [`SWEEP_K`]-source sweep at size `n`, one run.
fn measure_sweep(n: usize) -> ScaleMeasurement {
    measure_run(
        n,
        FrontierSource::seeded(n, SCALE_SEED),
        &KSourceBroadcast::evenly_spread(n, SWEEP_K.min(n)),
    )
}

/// The median ns/round of [`GATE_REPS`] runs of the sweep at `n`.
pub fn sweep_median_ns_per_round(n: usize) -> f64 {
    let mut samples: Vec<f64> = (0..GATE_REPS)
        .map(|_| measure_sweep(n).ns_per_round)
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[GATE_REPS / 2]
}

/// One seeded sweep round split into its two phases.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSplit {
    /// Network size.
    pub n: usize,
    /// `FrontierSource::next_round`: drawing the round's uniform tree.
    pub sample_ms: f64,
    /// `FrontierState::apply_round`: the engine's work on that tree.
    pub apply_ms: f64,
}

/// Times round 2 of the seeded [`SWEEP_K`]-source sweep at size `n`,
/// phase by phase. Round 1 is a warm-up, so the source samples into its
/// retained tree as it does for the rest of a run.
pub fn measure_round_split(n: usize) -> RoundSplit {
    let workload = KSourceBroadcast::evenly_spread(n, SWEEP_K.min(n));
    let mut state = FrontierState::new(n, workload.sources());
    let mut source = FrontierSource::seeded(n, SCALE_SEED);
    let round = source.next_round(n, None);
    state.apply_round(round.tree, round.delta, &[]);
    let started = Instant::now();
    let round = source.next_round(n, None);
    let sampled = Instant::now();
    state.apply_round(round.tree, round.delta, &[]);
    RoundSplit {
        n,
        sample_ms: (sampled - started).as_secs_f64() * 1e3,
        apply_ms: sampled.elapsed().as_secs_f64() * 1e3,
    }
}

/// The `BENCH_frontier.json` gate document: every row's completion
/// round is an exact cell; the wall is `sweep_median_ns`, the
/// [`sweep_median_ns_per_round`] of the seeded sweep at [`GATE_N`]. The
/// sweep (not the path run) is the gated run: its rounds are all-delta,
/// so it covers the engine's full per-round machinery.
pub fn gate_report(rows: &[ScaleMeasurement], sweep_median_ns: f64) -> GateReport {
    GateReport {
        bench: "frontier".into(),
        exact: rows
            .iter()
            .map(|r| {
                let key = format!("{}/{}/n={}", r.workload, r.source, r.n);
                (key, rounds_cell(r.rounds))
            })
            .collect(),
        wall: Wall {
            label: format!("frontier sweep n={GATE_N}, median of {GATE_REPS} runs"),
            value: sweep_median_ns,
            unit: "ns/round".into(),
        },
        info: rows.to_value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<ScaleMeasurement> {
        vec![
            ScaleMeasurement {
                workload: "broadcast".into(),
                source: "static(path)".into(),
                n: 10_000,
                rounds: Some(9_999),
                wall_ms: 12.5,
                ns_per_round: 1250.0,
                peak_rss_kb: Some(4_321),
            },
            ScaleMeasurement {
                workload: "k-source-broadcast(k=16)".into(),
                source: "seeded-uniform(seed=379422)".into(),
                n: 10_000,
                rounds: Some(21),
                wall_ms: 3.0,
                ns_per_round: 142857.1,
                peak_rss_kb: None,
            },
        ]
    }

    #[test]
    fn report_roundtrips_through_parsers() {
        let rows = sample();
        let report = gate_report(&rows, 150_000.0);
        assert_eq!(
            report.exact.0,
            vec![
                ("broadcast/static(path)/n=10000".to_string(), 9_999),
                (
                    "k-source-broadcast(k=16)/seeded-uniform(seed=379422)/n=10000".to_string(),
                    21
                ),
            ]
        );
        assert_eq!(report.wall.value, 150_000.0, "the sweep median is gated");
        assert_eq!(
            report.wall.label,
            "frontier sweep n=10000, median of 5 runs"
        );
        let back: GateReport =
            serde::json::from_str(&serde::json::to_string_pretty(&report)).unwrap();
        assert_eq!(back, report);
        let info: Vec<ScaleMeasurement> = serde::Deserialize::from_value(&back.info).unwrap();
        assert_eq!(info, rows);
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = serde::json::to_string_pretty(&gate_report(&sample(), 150_000.0));
        assert!(doc.starts_with("{\n  \"bench\": \"frontier\",\n  \"exact\": {"));
        assert!(
            doc.contains("\"peak_rss_kb\": null"),
            "missing RSS renders null"
        );
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(kb) = peak_rss_kb() {
            assert!(kb > 0);
        }
    }

    #[test]
    fn round_split_times_both_phases() {
        let split = measure_round_split(300);
        assert_eq!(split.n, 300);
        assert!(split.sample_ms > 0.0 && split.apply_ms > 0.0, "{split:?}");
    }

    #[test]
    fn sweep_median_is_a_positive_per_round_cost() {
        let median = sweep_median_ns_per_round(256);
        assert!(median.is_finite() && median > 0.0, "{median}");
    }

    #[test]
    fn tiny_scale_rows_complete_deterministically() {
        let n = 512;
        let a = measure_scale_rows(n);
        let b = measure_scale_rows(n);
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].workload, "k-source-broadcast(k=1)");
        assert_eq!(a[0].rounds, Some(n as u64 - 1), "path diameter");
        assert!(a[1].rounds.is_some(), "seeded sweep completes");
        // Wall times vary; the exact-gate cells must not.
        let key = |m: &ScaleMeasurement| (m.workload.clone(), m.source.clone(), m.n, m.rounds);
        assert_eq!(key(&a[0]), key(&b[0]));
        assert_eq!(key(&a[1]), key(&b[1]));
    }
}
