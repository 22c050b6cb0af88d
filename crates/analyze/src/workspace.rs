//! Workspace discovery: find the crates, classify their source files,
//! lex everything once.
//!
//! The walker is deliberately convention-driven rather than
//! Cargo-metadata-driven: it scans `<root>/Cargo.toml` (the facade
//! package, if present) plus every `<root>/crates/*/Cargo.toml`, and
//! classifies `.rs` files by directory (`src/`, `src/bin/`, `tests/`,
//! `benches/`, `examples/`). That convention *is* one of the invariants
//! the tool guards, and it lets the fixture mini-workspaces under
//! `tests/fixtures/` be analyzed with the identical code path.
//!
//! `tests/fixtures/` subtrees are never collected as source: they are
//! analyzer *input data*, not code of the crate that carries them.

use std::fs;
use std::path::{Path, PathBuf};

use crate::lexer::{self, LexFile};
use crate::manifest::{self, Manifest};

/// How a source file participates in the crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code under `src/` (excluding `src/bin/`).
    LibSrc,
    /// A binary target under `src/bin/`.
    BinSrc,
    /// An integration test under `tests/`.
    Test,
    /// A bench target under `benches/`.
    Bench,
    /// An example under `examples/`.
    Example,
}

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: String,
    /// Directory classification.
    pub kind: FileKind,
    /// The token stream and comment table.
    pub lex: LexFile,
}

/// One crate: manifest plus lexed sources.
#[derive(Debug)]
pub struct CrateInfo {
    /// `package.name` from the manifest.
    pub name: String,
    /// Crate directory relative to the workspace root (empty for the
    /// root package).
    pub rel_dir: String,
    /// Parsed manifest subset.
    pub manifest: Manifest,
    /// Manifest path relative to the workspace root.
    pub manifest_rel_path: String,
    /// All `.rs` files of the crate.
    pub files: Vec<SourceFile>,
}

/// The analyzed workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute root directory.
    pub root: PathBuf,
    /// Discovered crates, facade package first when present.
    pub crates: Vec<CrateInfo>,
}

impl Workspace {
    /// Discovers and lexes the workspace under `root`.
    ///
    /// # Errors
    ///
    /// An I/O-flavored message when `root` has no readable crate at all.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let root = root
            .canonicalize()
            .map_err(|e| format!("cannot resolve workspace root {}: {e}", root.display()))?;
        let mut crates = Vec::new();
        // The root facade package, when the root manifest has [package].
        let root_manifest = root.join("Cargo.toml");
        if root_manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&root_manifest) {
                let m = manifest::parse(&text);
                if !m.package_name.is_empty() {
                    crates.push(load_crate(&root, &root, m)?);
                }
            }
        }
        // Member crates by convention: crates/*/Cargo.toml.
        let crates_dir = root.join("crates");
        let mut members: Vec<PathBuf> = match fs::read_dir(&crates_dir) {
            Ok(entries) => entries
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| p.join("Cargo.toml").is_file())
                .collect(),
            Err(_) => Vec::new(),
        };
        members.sort();
        for dir in members {
            let text = fs::read_to_string(dir.join("Cargo.toml"))
                .map_err(|e| format!("unreadable {}: {e}", dir.join("Cargo.toml").display()))?;
            let m = manifest::parse(&text);
            crates.push(load_crate(&root, &dir, m)?);
        }
        if crates.is_empty() {
            return Err(format!("no crates found under {}", root.display()));
        }
        Ok(Workspace { root, crates })
    }
}

fn load_crate(root: &Path, dir: &Path, manifest: Manifest) -> Result<CrateInfo, String> {
    let rel_dir = rel_to(root, dir);
    let mut files = Vec::new();
    for (sub, kind_of) in [
        ("src", FileKind::LibSrc),
        ("tests", FileKind::Test),
        ("benches", FileKind::Bench),
        ("examples", FileKind::Example),
    ] {
        collect_rs(root, &dir.join(sub), kind_of, &mut files)?;
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    let name = if manifest.package_name.is_empty() {
        format!("<unnamed {rel_dir}>")
    } else {
        manifest.package_name.clone()
    };
    Ok(CrateInfo {
        name,
        rel_dir,
        manifest,
        manifest_rel_path: rel_to(root, &dir.join("Cargo.toml")),
        files,
    })
}

/// Recursively collects `.rs` files under `dir`, classifying `src/bin/`
/// as binaries and skipping `fixtures/` subtrees (analyzer input data).
fn collect_rs(
    root: &Path,
    dir: &Path,
    kind: FileKind,
    out: &mut Vec<SourceFile>,
) -> Result<(), String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Ok(()); // missing target dirs are fine
    };
    for entry in entries.filter_map(Result::ok) {
        let path = entry.path();
        let file_name = entry.file_name();
        let file_name = file_name.to_string_lossy();
        if path.is_dir() {
            if file_name == "fixtures" {
                continue;
            }
            let sub_kind = if kind == FileKind::LibSrc && file_name == "bin" {
                FileKind::BinSrc
            } else {
                kind
            };
            collect_rs(root, &path, sub_kind, out)?;
        } else if file_name.ends_with(".rs") {
            let text = fs::read_to_string(&path)
                .map_err(|e| format!("unreadable {}: {e}", path.display()))?;
            out.push(SourceFile {
                rel_path: rel_to(root, &path),
                kind,
                lex: lexer::lex(&text),
            });
        }
    }
    Ok(())
}

/// `path` relative to `root`, `/`-separated (stable across hosts for
/// diagnostics, allowlists and baselines).
fn rel_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}
