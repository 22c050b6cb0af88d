//! Fixture-driven rule tests: every rule (L1, L2, L4) is demonstrated by a
//! mini-workspace pair under `tests/fixtures/` — a clean variant the
//! rule must accept and a dirty variant it must reject, with the
//! expected diagnostics pinned by message fragment.
//!
//! The fixtures use real `treecast-*` crate names so the checked-in
//! layering DAG applies to them unchanged; they are plain directory
//! trees, not cargo workspace members (the root `crates/*` glob is
//! single-level and never descends into `tests/fixtures/`).

use std::path::PathBuf;

use treecast_analyze::{run_rules, Finding, RuleId, Workspace};

fn fixture(name: &str) -> Workspace {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    Workspace::load(&dir).unwrap_or_else(|e| panic!("fixture `{name}` should load: {e}"))
}

fn run(name: &str, rule: RuleId) -> Vec<Finding> {
    run_rules(&fixture(name), &[rule])
}

/// Asserts exactly one finding in `findings` mentions `fragment`.
#[track_caller]
fn assert_one(findings: &[Finding], fragment: &str) {
    let hits = findings
        .iter()
        .filter(|f| f.message.contains(fragment))
        .count();
    assert_eq!(
        hits, 1,
        "want exactly one finding containing {fragment:?}, got {hits} in {findings:#?}"
    );
}

// ---------------------------------------------------------------- L1

#[test]
fn l1_clean_layering_passes() {
    assert_eq!(run("l1_clean", RuleId::Layering), vec![]);
}

#[test]
fn l1_dirty_layering_fires() {
    let findings = run("l1_dirty", RuleId::Layering);
    assert_eq!(findings.len(), 3, "{findings:#?}");
    // The base layer declares a dependency on a crate above it.
    assert_one(
        &findings,
        "`treecast-bitmatrix` must not depend on `treecast-core`",
    );
    // A member that escapes the workspace lint table.
    assert_one(
        &findings,
        "`treecast-bitmatrix` does not set `[lints] workspace = true`",
    );
    // A treecast crate that never registered in the DAG table.
    assert_one(
        &findings,
        "`treecast-rogue` is not registered in the layering DAG",
    );
}

// ---------------------------------------------------------------- L2

#[test]
fn l2_clean_panics_pass() {
    // Annotated expect, test-module unwrap, and bin-target unwrap are
    // all outside the policy.
    assert_eq!(run("l2_clean", RuleId::PanicPolicy), vec![]);
}

#[test]
fn l2_dirty_panics_fire() {
    let findings = run("l2_dirty", RuleId::PanicPolicy);
    assert_eq!(findings.len(), 4, "{findings:#?}");
    assert_one(&findings, ".unwrap() in library code");
    assert_one(&findings, "panic! in library code");
    assert_one(&findings, ".expect() in library code");
    assert_one(&findings, "annotation is missing its reason");
}

// ---------------------------------------------------------------- L4

#[test]
fn l4_clean_bench_gates_pass() {
    // bench_demo has a baseline, a ci.sh invocation, and a README row.
    assert_eq!(run("l4_clean", RuleId::GateCoverage), vec![]);
}

#[test]
fn l4_dirty_bench_gates_fire() {
    let findings = run("l4_dirty", RuleId::GateCoverage);
    assert_eq!(findings.len(), 3, "{findings:#?}");
    assert_one(
        &findings,
        "has no checked-in baseline `results/BENCH_orphan_baseline.json`",
    );
    assert_one(&findings, "`bench_orphan` is never invoked from ci.sh");
    assert_one(&findings, "BENCH_orphan.json");
}

// ------------------------------------------------- cross-rule sanity

#[test]
fn dirty_fixtures_are_quiet_outside_their_rule() {
    // The L1 dirty fixture must not trip the panic policy, and the L2
    // dirty fixture must not trip gate coverage: each fixture isolates
    // exactly one rule's failure mode.
    assert_eq!(run("l1_dirty", RuleId::PanicPolicy), vec![]);
    assert_eq!(run("l2_dirty", RuleId::GateCoverage), vec![]);
}
