//! L4 — bench-gate coverage.
//!
//! Every `bench_*` binary in the bench crate is a CI gate, and a gate
//! that is not wired up is a gate that silently stops gating. For each
//! `crates/bench/src/bin/bench_<x>.rs` the rule requires:
//!
//! * a checked-in baseline `results/BENCH_<x>_baseline.json`,
//! * an invocation of `bench_<x>` somewhere in `ci.sh`,
//! * a row mentioning `BENCH_<x>.json` in `crates/bench/README.md`'s
//!   gate table (every gate shares the one `GateReport` schema there).

use std::fs;

use crate::rules::{Finding, RuleId};
use crate::workspace::Workspace;

/// Runs L4 over the workspace.
#[must_use]
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    let Some(bench) = ws.crates.iter().find(|c| c.rel_dir == "crates/bench") else {
        return findings; // no bench crate, nothing to gate
    };
    let ci_text = fs::read_to_string(ws.root.join("ci.sh")).unwrap_or_default();
    let readme_rel = format!("{}/README.md", bench.rel_dir);
    let readme_text = fs::read_to_string(ws.root.join(&readme_rel)).unwrap_or_default();
    for file in &bench.files {
        let Some(stem) = file
            .rel_path
            .rsplit('/')
            .next()
            .and_then(|name| name.strip_suffix(".rs"))
        else {
            continue;
        };
        if !file.rel_path.contains("/src/bin/") || !stem.starts_with("bench_") {
            continue;
        }
        let suffix = &stem["bench_".len()..];
        let baseline_rel = format!("results/BENCH_{suffix}_baseline.json");
        if !ws.root.join(&baseline_rel).is_file() {
            findings.push(Finding::new(
                RuleId::GateCoverage,
                &file.rel_path,
                0,
                format!("bench bin `{stem}` has no checked-in baseline `{baseline_rel}`"),
            ));
        }
        if !ci_text.contains(stem) {
            findings.push(Finding::new(
                RuleId::GateCoverage,
                &file.rel_path,
                0,
                format!("bench bin `{stem}` is never invoked from ci.sh"),
            ));
        }
        if !readme_text.contains(&format!("BENCH_{suffix}.json")) {
            findings.push(Finding::new(
                RuleId::GateCoverage,
                &file.rel_path,
                0,
                format!(
                    "bench bin `{stem}` has no `BENCH_{suffix}.json` schema row in \
                     {readme_rel}"
                ),
            ));
        }
    }
    findings
}
