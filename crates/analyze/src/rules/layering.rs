//! L1 — the crate-layering DAG.
//!
//! The workspace architecture is a strict DAG:
//!
//! ```text
//! bitmatrix → trees → core → {adversary, solver, nonsplit, montecarlo,
//!                              emulation} → {server, client} → bench
//! ```
//!
//! [`DAG`] records each crate's *direct* upstream edges; a crate may
//! depend (in `Cargo.toml`, any section) on exactly the crates in the
//! transitive closure of its edges. Source needs no check of its own:
//! rustc rejects a `treecast_*` path without a manifest dependency behind
//! it (E0433). Everything else is a finding:
//!
//! * a workspace member whose manifest does not set `[lints] workspace =
//!   true` (it would escape the root `[workspace.lints]` table),
//! * a `treecast-*` crate absent from the table (new crates must
//!   register — see CONTRIBUTING.md),
//! * a manifest dependency outside the closure (a layering violation),
//! * a cycle in the declared table itself (cannot happen without editing
//!   this file, but the check keeps the table honest).

use std::collections::{BTreeMap, BTreeSet};

use crate::rules::{Finding, RuleId};
use crate::workspace::Workspace;

/// The declared layering DAG: `(crate, direct upstream dependencies)`.
/// New crates MUST register here (and in CONTRIBUTING.md's table).
pub const DAG: &[(&str, &[&str])] = &[
    ("treecast-bitmatrix", &[]),
    ("treecast-trees", &["treecast-bitmatrix"]),
    ("treecast-core", &["treecast-trees", "treecast-bitmatrix"]),
    ("treecast-adversary", &["treecast-core"]),
    ("treecast-solver", &["treecast-core"]),
    ("treecast-nonsplit", &["treecast-core"]),
    ("treecast-montecarlo", &["treecast-core"]),
    ("treecast-emulation", &["treecast-core", "treecast-trees"]),
    ("treecast-server", &["treecast-adversary", "treecast-core"]),
    ("treecast-client", &["treecast-server", "treecast-core"]),
    (
        "treecast-bench",
        &[
            "treecast-adversary",
            "treecast-client",
            "treecast-emulation",
            "treecast-montecarlo",
            "treecast-nonsplit",
            "treecast-server",
            "treecast-solver",
        ],
    ),
    (
        "treecast-analyze",
        &[
            "treecast-emulation",
            "treecast-montecarlo",
            "treecast-server",
            "treecast-solver",
        ],
    ),
    (
        "treecast",
        &[
            "treecast-adversary",
            "treecast-client",
            "treecast-emulation",
            "treecast-montecarlo",
            "treecast-nonsplit",
            "treecast-server",
            "treecast-solver",
        ],
    ),
];

/// The transitive closure of a crate's allowed dependencies, or `None`
/// when the crate is not registered.
#[must_use]
pub fn allowed_deps(name: &str) -> Option<BTreeSet<&'static str>> {
    let direct = DAG.iter().find(|(c, _)| *c == name)?.1;
    let mut closed: BTreeSet<&'static str> = BTreeSet::new();
    let mut stack: Vec<&'static str> = direct.to_vec();
    while let Some(dep) = stack.pop() {
        if closed.insert(dep) {
            if let Some((_, ups)) = DAG.iter().find(|(c, _)| *c == dep) {
                stack.extend(ups.iter().copied());
            }
        }
    }
    Some(closed)
}

/// `Some(cycle member)` when the declared table is not a DAG.
#[must_use]
pub fn table_cycle() -> Option<&'static str> {
    // Kahn's algorithm over the declared edges.
    let mut indegree: BTreeMap<&str, usize> = DAG.iter().map(|(c, _)| (*c, 0)).collect();
    for (_, ups) in DAG {
        for up in *ups {
            if let Some(d) = indegree.get_mut(up) {
                *d += 1;
            }
        }
    }
    let mut queue: Vec<&str> = indegree
        .iter()
        .filter(|(_, d)| **d == 0)
        .map(|(c, _)| *c)
        .collect();
    let mut seen = 0usize;
    while let Some(c) = queue.pop() {
        seen += 1;
        if let Some((_, ups)) = DAG.iter().find(|(name, _)| *name == c) {
            for up in *ups {
                if let Some(d) = indegree.get_mut(up) {
                    *d -= 1;
                    if *d == 0 {
                        queue.push(up);
                    }
                }
            }
        }
    }
    if seen == DAG.len() {
        None
    } else {
        indegree.iter().find(|(_, d)| **d > 0).map(|(c, _)| *c)
    }
}

/// Runs L1 over the workspace.
#[must_use]
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Some(member) = table_cycle() {
        findings.push(Finding::new(
            RuleId::Layering,
            "crates/analyze/src/rules/layering.rs",
            0,
            format!("the declared layering table has a cycle through `{member}`"),
        ));
    }
    for krate in &ws.crates {
        if !krate.manifest.inherits_workspace_lints {
            findings.push(Finding::new(
                RuleId::Layering,
                &krate.manifest_rel_path,
                0,
                format!(
                    "`{}` does not set `[lints] workspace = true` — every workspace \
                     member inherits the root `[workspace.lints]` table",
                    krate.name
                ),
            ));
        }
        if !krate.name.starts_with("treecast") {
            continue;
        }
        let Some(allowed) = allowed_deps(&krate.name) else {
            findings.push(Finding::new(
                RuleId::Layering,
                &krate.manifest_rel_path,
                0,
                format!(
                    "crate `{}` is not registered in the layering DAG — add it to \
                     `crates/analyze/src/rules/layering.rs` (see CONTRIBUTING.md)",
                    krate.name
                ),
            ));
            continue;
        };
        // Every treecast dependency must be in the closure.
        for dep in &krate.manifest.deps {
            if !dep.name.starts_with("treecast") || dep.name == krate.name {
                continue;
            }
            if !allowed.contains(dep.name.as_str()) {
                findings.push(Finding::new(
                    RuleId::Layering,
                    &krate.manifest_rel_path,
                    dep.line,
                    format!(
                        "`{}` must not depend on `{}`: the layering DAG allows {:?}",
                        krate.name,
                        dep.name,
                        allowed.iter().collect::<Vec<_>>()
                    ),
                ));
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_table_is_acyclic() {
        assert_eq!(table_cycle(), None);
    }

    #[test]
    fn closure_walks_transitively() {
        let solver = allowed_deps("treecast-solver").unwrap();
        assert!(solver.contains("treecast-core"));
        assert!(solver.contains("treecast-trees"), "via core");
        assert!(solver.contains("treecast-bitmatrix"), "via trees");
        assert!(!solver.contains("treecast-server"));
        let bitmatrix = allowed_deps("treecast-bitmatrix").unwrap();
        assert!(bitmatrix.is_empty());
        assert!(allowed_deps("treecast-widgets").is_none());
    }

    #[test]
    fn bench_and_facade_reach_everything() {
        for top in ["treecast-bench", "treecast"] {
            let allowed = allowed_deps(top).unwrap();
            for (name, _) in DAG {
                if *name != top
                    && *name != "treecast"
                    && *name != "treecast-bench"
                    && *name != "treecast-analyze"
                {
                    assert!(allowed.contains(name), "{top} should reach {name}");
                }
            }
        }
    }
}
