//! A minimal `Cargo.toml` reader — the TOML subset Cargo manifests in
//! this workspace actually use, parsed with no `toml` dependency.
//!
//! Understood: `[section]` / `[section.key]` headers, `key = "string"`,
//! `key = true/false`, `key = { inline = "table", … }`, and multi-line
//! arrays (ignored except for detecting their extent). That covers what
//! the rules need: the package name, the declared `[features]`, and the
//! dependency names of every dependency section (with `optional = true`
//! detection for implicit features).

/// One dependency entry.
#[derive(Debug, Clone)]
pub struct Dep {
    /// Dependency name as written (dashes kept).
    pub name: String,
    /// `true` when declared with `optional = true` (such a dependency
    /// implicitly declares a feature of the same name unless referenced
    /// only via `dep:` syntax — close enough for the L5 audit).
    pub optional: bool,
    /// `true` when the entry sits in `[dev-dependencies]`.
    pub dev: bool,
    /// 1-based line of the declaration.
    pub line: usize,
}

/// The parsed subset of one `Cargo.toml`.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `package.name`, empty for a virtual (workspace-only) manifest.
    pub package_name: String,
    /// Keys of `[features]`, with their declaration lines.
    pub features: Vec<(String, usize)>,
    /// All dependencies across `[dependencies]`, `[dev-dependencies]`
    /// and `[build-dependencies]` (target-specific sections included).
    pub deps: Vec<Dep>,
}

impl Manifest {
    /// `true` when `name` is usable inside `#[cfg(feature = "…")]` for
    /// this crate: an explicit `[features]` key or an implicit
    /// optional-dependency feature.
    #[must_use]
    pub fn declares_feature(&self, name: &str) -> bool {
        self.features.iter().any(|(f, _)| f == name)
            || self.deps.iter().any(|d| d.optional && d.name == name)
    }

    /// The dependency entry named `name`, if any.
    #[must_use]
    pub fn dep(&self, name: &str) -> Option<&Dep> {
        self.deps.iter().find(|d| d.name == name)
    }
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
                // `optional = true` inside the section body is handled
                // by the key scan below (section context retained).
                m.deps.push(Dep {
                    name: dep_name,
                    optional: false,
                    dev: section.contains("dev-dependencies"),
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
        match section_kind(&section) {
            SectionKind::Package if key == "name" => {
                m.package_name = string_value(value).unwrap_or_default();
            }
            SectionKind::Features => {
                m.features.push((key.to_string(), lineno));
            }
            SectionKind::Deps { dev } => {
                let optional = value.contains("optional") && value.contains("true");
                m.deps.push(Dep {
                    name: key.to_string(),
                    optional,
                    dev,
                    line: lineno,
                });
            }
            // Body of `[dependencies.foo]`: attach `optional` to the
            // dependency the header declared.
            SectionKind::DepDetail if key == "optional" && value == "true" => {
                if let Some(d) = m.deps.last_mut() {
                    d.optional = true;
                }
            }
            _ => {}
        }
    }
    m
}

enum SectionKind {
    Package,
    Features,
    Deps { dev: bool },
    DepDetail,
    Other,
}

fn section_kind(section: &str) -> SectionKind {
    match section {
        "package" => SectionKind::Package,
        "features" => SectionKind::Features,
        "dependencies" | "build-dependencies" => SectionKind::Deps { dev: false },
        "dev-dependencies" => SectionKind::Deps { dev: true },
        _ if dep_from_section_header(section).is_some() => SectionKind::DepDetail,
        _ => SectionKind::Other,
    }
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
extra = []
"#;

    #[test]
    fn parses_the_manifest_subset() {
        let m = parse(SAMPLE);
        assert_eq!(m.package_name, "treecast-sample");
        let features: Vec<_> = m.features.iter().map(|(f, _)| f.as_str()).collect();
        assert_eq!(features, vec!["serde", "extra"]);
        assert!(m.dep("treecast-core").is_some());
        assert!(!m.dep("treecast-core").unwrap().optional);
        assert!(m.dep("serde").unwrap().optional);
        assert!(m.dep("treecast-trees").unwrap().optional);
        assert!(m.dep("proptest").unwrap().dev);
        assert!(!m.dep("treecast-core").unwrap().dev);
    }

    #[test]
    fn feature_declarations_cover_optional_deps() {
        let m = parse(SAMPLE);
        assert!(m.declares_feature("serde"));
        assert!(m.declares_feature("extra"));
        assert!(
            m.declares_feature("treecast-trees"),
            "implicit optional-dep feature"
        );
        assert!(!m.declares_feature("proptest"), "dev-deps are not features");
        assert!(!m.declares_feature("nope"));
    }

    #[test]
    fn multiline_arrays_are_skipped() {
        let m = parse(
            "[package]\nname = \"x\"\nexclude = [\n  \"a\",\n  \"b\",\n]\n\n[features]\nf = []\n",
        );
        assert_eq!(m.package_name, "x");
        assert!(m.declares_feature("f"));
    }
}
