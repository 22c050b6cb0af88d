//! A minimal `Cargo.toml` reader — the TOML subset Cargo manifests in
//! this workspace actually use, parsed with no `toml` dependency.
//!
//! Understood: `[section]` / `[section.key]` headers, `key = "string"`,
//! `key = true/false`, `key = { inline = "table", … }`, and multi-line
//! arrays (ignored except for detecting their extent). That covers what
//! the rules need: the package name, the dependency names of every
//! dependency section, and whether `[lints]` inherits the workspace
//! table.

/// One dependency entry.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependency name as written (dashes kept).
    pub name: String,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// The parsed subset of one `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `package.name`, empty for a virtual (workspace-only) manifest.
    pub package_name: String,
    /// All dependencies across `[dependencies]`, `[dev-dependencies]`
    /// and `[build-dependencies]` (target-specific sections included).
    pub deps: Vec<Dep>,
    /// `true` when the manifest sets `[lints] workspace = true`.
    pub inherits_workspace_lints: bool,
}

/// Parses the supported subset of `text`. Unknown constructs are skipped
/// line-by-line; the parser never fails.
#[must_use]
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut in_array = false;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = strip_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if in_array {
            if line.ends_with(']') {
                in_array = false;
            }
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line[1..line.len() - 1].trim().to_string();
            // `[dependencies.foo]` / `[target.'cfg(x)'.dependencies.foo]`
            // declare the dependency `foo` directly from the header.
            if let Some(dep_name) = dep_from_section_header(&section) {
                m.deps.push(Dep {
                    name: dep_name,
                    line: lineno,
                });
            }
            continue;
        }
        let Some((key, value)) = split_key_value(&line) else {
            continue;
        };
        if value.starts_with('[') && !value.ends_with(']') {
            in_array = true;
        }
        match section.as_str() {
            "package" if key == "name" => {
                m.package_name = string_value(value).unwrap_or_default();
            }
            "dependencies" | "dev-dependencies" | "build-dependencies" => {
                m.deps.push(Dep {
                    name: key.to_string(),
                    line: lineno,
                });
            }
            "lints" if key == "workspace" => m.inherits_workspace_lints = value == "true",
            _ => {}
        }
    }
    m
}

/// `dependencies.foo` → `Some("foo")`, also for dev/build/target forms.
fn dep_from_section_header(section: &str) -> Option<String> {
    for marker in ["dependencies.", "dev-dependencies.", "build-dependencies."] {
        if let Some(pos) = section.find(marker) {
            // Reject e.g. `dependencies.foo.bar` (does not occur; be safe).
            let name = &section[pos + marker.len()..];
            if !name.is_empty() && !name.contains('.') {
                return Some(name.to_string());
            }
        }
    }
    None
}

/// Strips a `#` comment that is not inside a string value.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_key_value(line: &str) -> Option<(&str, &str)> {
    let eq = line.find('=')?;
    let key = line[..eq].trim().trim_matches('"');
    let value = line[eq + 1..].trim();
    if key.is_empty() {
        None
    } else {
        Some((key, value))
    }
}

fn string_value(value: &str) -> Option<String> {
    let v = value.trim();
    if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') {
        Some(v[1..v.len() - 1].to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "treecast-sample"    # trailing comment
version.workspace = true

[dependencies]
treecast-core = { workspace = true }
serde = { workspace = true, optional = true }

[dependencies.treecast-trees]
workspace = true
optional = true

[dev-dependencies]
proptest = { workspace = true }

[features]
serde = ["dep:serde"]

[lints]
workspace = true
"#;

    #[test]
    fn parses_the_manifest_subset() {
        let m = parse(SAMPLE);
        assert_eq!(m.package_name, "treecast-sample");
        let deps: Vec<_> = m.deps.iter().map(|d| (d.name.as_str(), d.line)).collect();
        assert_eq!(
            deps,
            vec![
                ("treecast-core", 7),
                ("serde", 8),
                ("treecast-trees", 10),
                ("proptest", 15)
            ]
        );
        assert!(m.inherits_workspace_lints);
        let bare = parse("[package]\nname = \"x\"\n\n[lints.clippy]\nworkspace = true\n");
        assert!(
            !bare.inherits_workspace_lints,
            "only `[lints]` itself counts"
        );
    }

    #[test]
    fn multiline_arrays_are_skipped() {
        let m = parse(
            "[package]\nname = \"x\"\nexclude = [\n  \"a\",\n  \"b\",\n]\n\n[lints]\nworkspace = true\n",
        );
        assert_eq!(m.package_name, "x");
        assert!(m.inherits_workspace_lints);
    }
}
