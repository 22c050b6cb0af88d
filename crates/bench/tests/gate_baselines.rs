//! The checked-in gate baselines are well-formed [`GateReport`]s that
//! gate themselves, and their exact cells and wall values are pinned: a
//! baseline refresh that drops a cell or moves a wall number shows up
//! here, not as a silently weaker CI gate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    reason = "test helper outside a #[test] fn: a failed setup aborts the test"
)]

use std::path::PathBuf;

use treecast_bench::gate::{check, GateReport};

/// `(bench, exact cells, wall value, wall unit)` of every baseline.
const PINNED: [(&str, usize, f64, &str); 7] = [
    ("adversary", 18, 4_688_225.0, "ns/plan"),
    ("emulation", 120, 5_287.5, "ns/replica-round"),
    ("frontier", 2, 537_814.1, "ns/round"),
    ("montecarlo", 30, 29_384.7, "ns/replica-round"),
    ("server", 27, 132_334.630_1, "ns/request"),
    ("solver", 6, 1_581.803, "ms"),
    ("workloads", 42, 7_062.0, "ns/round"),
];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn results_dir() -> PathBuf {
    repo_root().join("results")
}

/// Every `BENCH_<bench>_baseline.json`, parsed, in file-name order.
fn baselines() -> Vec<(String, GateReport)> {
    let mut found: Vec<(String, GateReport)> = std::fs::read_dir(results_dir())
        .expect("results/ exists")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let bench = name
                .strip_prefix("BENCH_")?
                .strip_suffix("_baseline.json")?
                .to_string();
            let text = std::fs::read_to_string(results_dir().join(&name)).unwrap();
            let report = serde::json::from_str(&text)
                .unwrap_or_else(|e| panic!("{name} is not a GateReport: {e}"));
            Some((bench, report))
        })
        .collect();
    found.sort_by(|a, b| a.0.cmp(&b.0));
    found
}

#[test]
fn every_baseline_is_a_gate_report_named_after_its_file() {
    let found = baselines();
    let names: Vec<&str> = found.iter().map(|(bench, _)| bench.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "one baseline per gated bench");
    for (bench, report) in &found {
        assert_eq!(&report.bench, bench, "`bench` must match the file name");
    }
}

#[test]
fn every_baseline_passes_its_own_gate() {
    for (bench, report) in baselines() {
        let verdict = check(&report, &report);
        assert!(verdict.failures.is_empty(), "{bench}: {verdict:?}");
    }
}

#[test]
fn exact_cell_counts_and_wall_values_are_pinned() {
    let found = baselines();
    let mut total = 0;
    for ((bench, report), &(_, cells, wall, unit)) in found.iter().zip(&PINNED) {
        assert_eq!(report.exact.0.len(), cells, "{bench}: exact cell count");
        assert_eq!(report.wall.value, wall, "{bench}: wall value");
        assert_eq!(report.wall.unit, unit, "{bench}: wall unit");
        total += report.exact.0.len();
    }
    assert_eq!(total, 245);
}

/// Every `src/bin/bench_<x>.rs` is a gate: it has a pinned baseline above,
/// a `ci.sh` step, and a `BENCH_<x>.json` row in the crate README.
#[test]
fn every_bench_bin_is_pinned_run_by_ci_and_documented() {
    let bins = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let mut stems: Vec<String> = std::fs::read_dir(bins)
        .unwrap()
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            Some(
                name.strip_prefix("bench_")?
                    .strip_suffix(".rs")?
                    .to_string(),
            )
        })
        .collect();
    stems.sort();
    let pinned: Vec<&str> = PINNED.iter().map(|p| p.0).collect();
    assert_eq!(
        stems, pinned,
        "every bench_<x> bin needs a pinned results/BENCH_<x>_baseline.json"
    );
    let ci = std::fs::read_to_string(repo_root().join("ci.sh")).unwrap();
    let readme = std::fs::read_to_string(repo_root().join("crates/bench/README.md")).unwrap();
    for stem in &stems {
        assert!(
            ci.contains(&format!("bench_{stem}")),
            "bench_{stem} is never run by ci.sh"
        );
        assert!(
            readme.contains(&format!("BENCH_{stem}.json")),
            "bench_{stem} has no `BENCH_{stem}.json` row in crates/bench/README.md"
        );
    }
}
