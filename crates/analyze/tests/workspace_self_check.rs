//! The analyzer must pass on its own workspace: every rule over the
//! real repository, with the checked-in `analyze.allow`, yield zero
//! live findings and zero stale allowlist entries — the same contract
//! `ci.sh` enforces, kept honest from inside `cargo test`.

use std::path::PathBuf;

use treecast_analyze::{report, run_rules, Allowlist, RuleId, Workspace};

fn repo_root() -> PathBuf {
    // crates/analyze/../.. — the workspace root this crate lives in.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn the_real_workspace_is_clean_under_the_checked_in_allowlist() {
    let ws = Workspace::load(&repo_root()).expect("the real workspace loads");
    assert!(
        ws.crates.len() >= 10,
        "expected the full workspace, found only {} crates",
        ws.crates.len()
    );

    let mut findings = run_rules(&ws, &RuleId::ALL);
    let allow_text = std::fs::read_to_string(repo_root().join("analyze.allow"))
        .expect("analyze.allow is checked in");
    let warnings = Allowlist::parse(&allow_text).apply(&mut findings);
    assert_eq!(
        warnings,
        Vec::<String>::new(),
        "stale allowlist entries — shrink analyze.allow"
    );

    let live: Vec<_> = findings.iter().filter(|f| !f.allowlisted).collect();
    assert!(
        live.is_empty(),
        "live findings in the real workspace:\n{}",
        live.iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn the_checked_in_baseline_matches_the_workspace() {
    let ws = Workspace::load(&repo_root()).expect("the real workspace loads");
    let mut findings = run_rules(&ws, &RuleId::ALL);
    let allow_text = std::fs::read_to_string(repo_root().join("analyze.allow"))
        .expect("analyze.allow is checked in");
    let warnings = Allowlist::parse(&allow_text).apply(&mut findings);
    assert_eq!(
        warnings,
        Vec::<String>::new(),
        "stale allowlist entries — shrink analyze.allow"
    );

    let baseline = std::fs::read_to_string(repo_root().join("results/ANALYZE_baseline.json"))
        .expect("results/ANALYZE_baseline.json is checked in");
    if let Err(mismatches) = report::check_baseline(&findings, &baseline) {
        panic!(
            "baseline drift — rerun `analyze --write-baseline`:\n{}",
            mismatches.join("\n")
        );
    }
}

#[test]
fn the_server_crate_needs_no_allowlist() {
    // Hard policy: the serving path carries no grandfathered panics.
    let allow_text = std::fs::read_to_string(repo_root().join("analyze.allow"))
        .expect("analyze.allow is checked in");
    for line in allow_text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        assert!(
            !line.contains("crates/server/"),
            "the server crate must stay allowlist-free: `{line}`"
        );
    }
}
