//! Shared pieces of the frontier-engine benchmark report
//! (`bench_frontier`): the scale-run measurements, peak-RSS readout,
//! hand-rolled JSON rendering (no serde in the offline build), and the
//! minimal parser the CI gate needs.
//!
//! The gate has the standard two halves (see [`crate::gate`]):
//!
//! * **round counts** — every row is a deterministic frontier run
//!   (seeded sources, fixed workloads), so completion rounds are exact
//!   and drift against `results/BENCH_frontier_baseline.json` is a
//!   correctness failure that is *never* skipped;
//! * **wall time** — the per-round cost of the gated smoke row
//!   ([`GATE_N`], k-source spread under seeded uniform trees) is gated
//!   at +25%, skippable via `TREECAST_BENCH_GATE=off`.
//!
//! The baseline records only the smoke sizes: the n = 10⁶ rows run in
//! the release tier, where [`crate::gate::exact_gate`]'s
//! extra-current-cells allowance keeps them gate-exempt until a
//! million-node baseline is recorded deliberately.

use std::time::Instant;

use treecast_core::frontier::{run_workload_frontier, FrontierSource, FrontierState};
use treecast_core::{KSourceBroadcast, SimulationConfig, Workload};
use treecast_trees::generators;

/// Smoke size: quick-tier CI territory (a second or two, debug build).
pub const SMOKE_N: usize = 10_000;

/// Scale size: the tentpole target, release tier only.
pub const SCALE_N: usize = 1_000_000;

/// The row whose per-round wall time the CI gate compares.
pub const GATE_N: usize = SMOKE_N;

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
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleMeasurement {
    /// Workload name (`broadcast`, `k-source-broadcast(k=16)`, …).
    pub workload: String,
    /// Source label (`static(path)`, `seeded-uniform(seed=…)`).
    pub source: String,
    /// Network size.
    pub n: usize,
    /// Completion round, or `None` if the capped run did not complete
    /// (rendered as `-1`; never expected for these rows).
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
        measure_run(
            n,
            FrontierSource::seeded(n, SCALE_SEED),
            &KSourceBroadcast::evenly_spread(n, SWEEP_K.min(n)),
        ),
    ]
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

/// Renders the measurement rows as the `BENCH_frontier.json` document
/// (line-oriented so [`parse_rounds`] / [`parse_ns_per_round`] can read
/// it back without a JSON dependency).
pub fn render_report(rows: &[ScaleMeasurement]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"frontier\",\n");
    out.push_str("  \"runs\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"workload\": \"{}\",\n", r.workload));
        out.push_str(&format!("      \"source\": \"{}\",\n", r.source));
        out.push_str(&format!("      \"n\": {},\n", r.n));
        out.push_str(&format!(
            "      \"rounds\": {},\n",
            r.rounds.map(|t| t as i64).unwrap_or(-1)
        ));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", r.wall_ms));
        out.push_str(&format!("      \"ns_per_round\": {:.1},\n", r.ns_per_round));
        out.push_str(&format!(
            "      \"peak_rss_kb\": {}\n",
            r.peak_rss_kb.map(|kb| kb as i64).unwrap_or(-1)
        ));
        out.push_str(if i + 1 == rows.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Extracts every run's round count from a [`render_report`] document as
/// `((workload, source, n), rounds)` tuples — the exact-gate cells.
pub fn parse_rounds(report: &str) -> Vec<((String, String, usize), i64)> {
    let mut out = Vec::new();
    let mut lines = report.lines();
    while let Some(line) = lines.next() {
        let Some(workload) = field_str(line, "workload") else {
            continue;
        };
        let source = lines.next().and_then(|l| field_str(l, "source"));
        let n = lines.next().and_then(|l| field_num(l, "n"));
        let rounds = lines.next().and_then(|l| field_num(l, "rounds"));
        if let (Some(source), Some(n), Some(rounds)) = (source, n, rounds) {
            out.push(((workload, source, n as usize), rounds));
        }
    }
    out
}

/// Extracts the `ns_per_round` of the row matching `workload` and `n`
/// from a [`render_report`] document — the wall-gate statistic.
pub fn parse_ns_per_round(report: &str, workload: &str, n: usize) -> Option<f64> {
    let mut lines = report.lines();
    while let Some(line) = lines.next() {
        let Some(w) = field_str(line, "workload") else {
            continue;
        };
        let _source = lines.next();
        let row_n = lines.next().and_then(|l| field_num(l, "n"));
        if w != workload || row_n != Some(n as i64) {
            continue;
        }
        let _rounds = lines.next();
        let _wall = lines.next();
        return lines.next().and_then(|l| {
            l.trim()
                .strip_prefix("\"ns_per_round\": ")
                .and_then(|v| v.trim_end_matches(',').parse().ok())
        });
    }
    None
}

fn field_str(line: &str, key: &str) -> Option<String> {
    line.trim()
        .strip_prefix(&format!("\"{key}\": \""))
        .map(|rest| {
            rest.trim_end_matches("\",")
                .trim_end_matches('"')
                .to_string()
        })
}

fn field_num(line: &str, key: &str) -> Option<i64> {
    line.trim()
        .strip_prefix(&format!("\"{key}\": "))
        .and_then(|v| v.trim_end_matches(',').parse().ok())
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
        let doc = render_report(&sample());
        let rounds = parse_rounds(&doc);
        assert_eq!(rounds.len(), 2);
        assert_eq!(
            rounds[0],
            (("broadcast".into(), "static(path)".into(), 10_000), 9_999)
        );
        assert_eq!(rounds[1].1, 21);
        assert_eq!(
            parse_ns_per_round(&doc, "k-source-broadcast(k=16)", 10_000),
            Some(142857.1)
        );
        assert_eq!(parse_ns_per_round(&doc, "broadcast", 10_000), Some(1250.0));
        assert_eq!(parse_ns_per_round(&doc, "broadcast", 999), None);
    }

    #[test]
    fn report_is_json_shaped() {
        let doc = render_report(&sample());
        assert!(doc.starts_with("{\n"));
        assert!(doc.ends_with("}\n"));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
        assert!(!doc.contains(",\n  ]"));
        assert!(!doc.contains(",\n    }"));
        assert!(
            doc.contains("\"peak_rss_kb\": -1"),
            "missing RSS renders -1"
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
