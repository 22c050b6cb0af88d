//! The crate-layering DAG, checked against the workspace manifests.
//!
//! ```text
//! bitmatrix → trees → core → {adversary, solver, nonsplit, montecarlo,
//!                              emulation} → {server, client} → bench
//! ```
//!
//! [`DAG`] records each crate's *direct* upstream edges; a crate may
//! depend (in `Cargo.toml`, any dependency section) on exactly the crates
//! in the transitive closure of its edges. Source needs no check of its
//! own: rustc rejects a `treecast_*` path without a manifest dependency
//! behind it (E0433). The manifests are read with a small line reader,
//! not `cargo metadata`, so the test needs no cargo process.

#![allow(
    clippy::expect_used,
    reason = "test helper outside a #[test] fn: a failed setup aborts the test"
)]

use std::collections::BTreeSet;
use std::path::PathBuf;

/// The declared layering DAG: `(crate, direct upstream dependencies)`.
/// A new crate registers here (see CONTRIBUTING.md).
const DAG: &[(&str, &[&str])] = &[
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
fn allowed_deps(name: &str) -> Option<BTreeSet<&'static str>> {
    let direct = DAG.iter().find(|(c, _)| *c == name)?.1;
    let mut closed = BTreeSet::new();
    let mut stack = direct.to_vec();
    while let Some(dep) = stack.pop() {
        if closed.insert(dep) {
            if let Some((_, ups)) = DAG.iter().find(|(c, _)| *c == dep) {
                stack.extend_from_slice(ups);
            }
        }
    }
    Some(closed)
}

/// The parts of one `Cargo.toml` the checks read.
struct Manifest {
    /// Path relative to the repository root.
    path: String,
    /// `package.name`.
    name: String,
    /// `(dependency, 1-based line)` over every dependency section.
    deps: Vec<(String, usize)>,
    /// Whether `[lints]` sets `workspace = true`.
    workspace_lints: bool,
}

/// Whether a `[section]` header lists dependencies: `dependencies`,
/// `dev-dependencies`, `build-dependencies`, or their `target.….` forms
/// (not `workspace.dependencies`, which declares, not depends).
fn is_dep_section(section: &str) -> bool {
    let last = section.rsplit('.').next().unwrap_or(section);
    last.ends_with("dependencies") && !section.starts_with("workspace")
}

/// Parses the manifest subset this workspace uses: `[section]` headers
/// and `key = value` lines. `#` comments are cut, and lines without `=`
/// (the bodies of multi-line arrays) are skipped.
fn parse_manifest(path: &str, text: &str) -> Manifest {
    let mut manifest = Manifest {
        path: path.to_string(),
        name: String::new(),
        deps: Vec::new(),
        workspace_lints: false,
    };
    let mut section = String::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            section = header.trim().to_string();
            // `[dependencies.foo]` declares `foo` in its header.
            if let Some((table, dep)) = section.rsplit_once('.') {
                if is_dep_section(table) {
                    manifest.deps.push((dep.to_string(), i + 1));
                }
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match section.as_str() {
            "package" if key == "name" => manifest.name = value.trim_matches('"').to_string(),
            "lints" if key == "workspace" => manifest.workspace_lints = value == "true",
            s if is_dep_section(s) => manifest.deps.push((key.to_string(), i + 1)),
            _ => {}
        }
    }
    manifest
}

/// The root (facade) manifest and every `crates/*/Cargo.toml`.
fn members() -> Vec<Manifest> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut rels = vec!["Cargo.toml".to_string()];
    for entry in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let dir = entry.expect("crates/ is listable").file_name();
        let rel = format!("crates/{}/Cargo.toml", dir.to_string_lossy());
        if root.join(&rel).is_file() {
            rels.push(rel);
        }
    }
    rels.sort();
    rels.iter()
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(rel)).expect("a manifest is readable");
            parse_manifest(rel, &text)
        })
        .collect()
}

/// What is wrong with one member: it escapes the lint table, it is not
/// registered, or it depends on a `treecast-*` crate outside its closure.
fn findings(m: &Manifest) -> Vec<String> {
    let mut out = Vec::new();
    if !m.workspace_lints {
        out.push(format!(
            "{}: `{}` does not set `[lints] workspace = true`, so it escapes the root \
             `[workspace.lints]` table",
            m.path, m.name
        ));
    }
    let Some(allowed) = allowed_deps(&m.name) else {
        out.push(format!(
            "{}: crate `{}` is not registered in the layering DAG (tests/layering.rs)",
            m.path, m.name
        ));
        return out;
    };
    for (dep, line) in &m.deps {
        if dep.starts_with("treecast") && *dep != m.name && !allowed.contains(dep.as_str()) {
            out.push(format!(
                "{}:{line}: `{}` must not depend on `{dep}`: the layering DAG allows {:?}",
                m.path, m.name, allowed
            ));
        }
    }
    out
}

#[test]
fn every_member_keeps_to_the_dag_and_the_lint_table() {
    let members = members();
    let mut all: Vec<String> = members.iter().flat_map(findings).collect();
    for (name, _) in DAG {
        if !members.iter().any(|m| m.name == *name) {
            all.push(format!(
                "the layering DAG registers `{name}`, which is no member"
            ));
        }
    }
    assert!(all.is_empty(), "{}", all.join("\n"));
}

#[test]
fn a_dirty_manifest_is_caught() {
    let text = r#"
[package]
name = "treecast-trees"

[dependencies]
treecast-bitmatrix = { workspace = true } # allowed

[dev-dependencies.treecast-server]
workspace = true

[target.'cfg(unix)'.dependencies]
treecast-client = { workspace = true }

[workspace.dependencies]
treecast-bench = { path = "crates/bench" }
"#;
    let found = findings(&parse_manifest("crates/trees/Cargo.toml", text));
    assert_eq!(found.len(), 3, "{found:#?}");
    assert!(found[0].contains("does not set `[lints] workspace = true`"));
    assert!(found[1].starts_with(
        "crates/trees/Cargo.toml:8: `treecast-trees` must not depend on `treecast-server`"
    ));
    assert!(found[2].starts_with(
        "crates/trees/Cargo.toml:12: `treecast-trees` must not depend on `treecast-client`"
    ));
    let rogue = parse_manifest("crates/rogue/Cargo.toml", "[package]\nname = \"rogue\"\n");
    assert!(findings(&rogue)[1].contains("crate `rogue` is not registered"));
}

#[test]
fn declared_table_is_acyclic() {
    for (name, _) in DAG {
        let closure = allowed_deps(name).expect("registered");
        assert!(
            !closure.contains(name),
            "the DAG has a cycle through `{name}`"
        );
    }
}

#[test]
fn closure_walks_transitively() {
    let solver = allowed_deps("treecast-solver").expect("registered");
    assert!(solver.contains("treecast-core"));
    assert!(solver.contains("treecast-trees"), "via core");
    assert!(solver.contains("treecast-bitmatrix"), "via trees");
    assert!(!solver.contains("treecast-server"));
    assert!(allowed_deps("treecast-bitmatrix").is_some_and(|c| c.is_empty()));
    assert!(allowed_deps("treecast-widgets").is_none());
}

#[test]
fn bench_and_facade_reach_everything() {
    for top in ["treecast-bench", "treecast"] {
        let allowed = allowed_deps(top).expect("registered");
        for (name, _) in DAG {
            if !["treecast-bench", "treecast"].contains(name) {
                assert!(allowed.contains(name), "{top} should reach {name}");
            }
        }
    }
}
