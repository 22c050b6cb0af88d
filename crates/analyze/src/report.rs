//! Machine-readable output: `results/ANALYZE.json` and the baseline
//! gate.
//!
//! The JSON is written by hand (the lexical pass stays dependency-free;
//! the vendored serde shim belongs to the serving stack, not here). The
//! schema is intentionally flat:
//!
//! ```json
//! {
//!   "schema": "treecast-analyze/v1",
//!   "rules": { "L2": { "name": "panic-policy", "findings": 0, "allowlisted": 34 }, … },
//!   "findings": [ { "rule": "L2", "path": "…", "line": 12, "allowlisted": true, "message": "…" }, … ],
//!   "determinism": { … }            // only with --determinism
//! }
//! ```
//!
//! The baseline (`results/ANALYZE_baseline.json`) pins the per-rule
//! *allowlisted* counts exactly — non-allowlisted findings already fail
//! the run — so grandfathered findings can only go down: fixing one
//! forces a baseline (and allowlist) ratchet in the same commit, and a
//! new one cannot hide in the grandfathered pool.

use std::collections::BTreeMap;

use crate::determinism::DeterminismReport;
use crate::rules::{Finding, RuleId};

/// Per-rule counters split by allowlist status.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCounts {
    /// Live findings (these fail the run).
    pub findings: usize,
    /// Grandfathered findings (gated exactly by the baseline).
    pub allowlisted: usize,
}

/// Counts findings per rule over every rule (rules that did not run
/// still appear with zeros, keeping the JSON shape stable).
#[must_use]
pub fn count_by_rule(findings: &[Finding]) -> BTreeMap<RuleId, RuleCounts> {
    let mut counts: BTreeMap<RuleId, RuleCounts> = RuleId::ALL
        .iter()
        .map(|r| (*r, RuleCounts::default()))
        .collect();
    for f in findings {
        let c = counts.entry(f.rule).or_default();
        if f.allowlisted {
            c.allowlisted += 1;
        } else {
            c.findings += 1;
        }
    }
    counts
}

/// Renders the full report JSON.
#[must_use]
pub fn render_json(
    findings: &[Finding],
    ran: &[RuleId],
    determinism: Option<&DeterminismReport>,
) -> String {
    let counts = count_by_rule(findings);
    let mut out = String::from("{\n  \"schema\": \"treecast-analyze/v1\",\n");
    out.push_str(&format!(
        "  \"rules_run\": [{}],\n",
        ran.iter()
            .map(|r| format!("\"{}\"", r.code()))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str("  \"rules\": {\n");
    let rows: Vec<String> = counts
        .iter()
        .map(|(rule, c)| {
            format!(
                "    \"{}\": {{ \"name\": \"{}\", \"findings\": {}, \"allowlisted\": {} }}",
                rule.code(),
                rule.name(),
                c.findings,
                c.allowlisted
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  },\n");
    out.push_str("  \"findings\": [\n");
    let rows: Vec<String> = findings
        .iter()
        .map(|f| {
            format!(
                "    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \
                 \"allowlisted\": {}, \"message\": \"{}\" }}",
                f.rule.code(),
                escape(&f.path),
                f.line,
                f.allowlisted,
                escape(&f.message)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str(if findings.is_empty() {
        "  ],\n"
    } else {
        "\n  ],\n"
    });
    match determinism {
        Some(d) => {
            out.push_str("  \"determinism\": ");
            out.push_str(&d.render_json("  "));
            out.push('\n');
        }
        None => out.push_str("  \"determinism\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// Renders the baseline file content for the current counts.
#[must_use]
pub fn render_baseline(findings: &[Finding]) -> String {
    let counts = count_by_rule(findings);
    let rows: Vec<String> = counts
        .iter()
        .map(|(rule, c)| format!("    \"{}\": {}", rule.code(), c.allowlisted))
        .collect();
    format!(
        "{{\n  \"schema\": \"treecast-analyze-baseline/v1\",\n  \"allowlisted\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

/// Compares current counts against a baseline file's text: every rule's
/// allowlisted count must match exactly. Returns one message per
/// mismatch.
///
/// # Errors
///
/// A list of human-readable mismatch messages (also covers an unreadable
/// baseline value).
pub fn check_baseline(findings: &[Finding], baseline_text: &str) -> Result<(), Vec<String>> {
    let counts = count_by_rule(findings);
    let mut failures = Vec::new();
    for (rule, c) in &counts {
        match baseline_value(baseline_text, rule.code()) {
            Some(base) if base == c.allowlisted => {}
            Some(base) => failures.push(format!(
                "{} allowlisted findings: measured {}, baseline {} — findings may only \
                 ratchet down; regenerate the baseline (and allowlist) in the same \
                 commit as the fix",
                rule.code(),
                c.allowlisted,
                base
            )),
            None => failures.push(format!(
                "baseline has no \"{}\" cell — regenerate it with --write-baseline",
                rule.code()
            )),
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// Extracts `"code": <int>` from the baseline text. A full JSON parser
/// would be overkill for a file this tool itself generates.
fn baseline_value(text: &str, code: &str) -> Option<usize> {
    let needle = format!("\"{code}\"");
    let pos = text.find(&needle)?;
    let rest = &text[pos + needle.len()..];
    let colon = rest.find(':')?;
    let digits: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Escapes a string for JSON embedding.
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: RuleId, allowlisted: bool) -> Finding {
        let mut f = Finding::new(rule, "some/file.rs", 3, "msg with \"quotes\"".into());
        f.allowlisted = allowlisted;
        f
    }

    #[test]
    fn baseline_roundtrip_is_exact() {
        let findings = vec![
            finding(RuleId::PanicPolicy, true),
            finding(RuleId::PanicPolicy, true),
            finding(RuleId::GateCoverage, true),
        ];
        let baseline = render_baseline(&findings);
        assert!(check_baseline(&findings, &baseline).is_ok());
        // One fewer allowlisted finding fails the exact gate.
        let fewer = &findings[..2];
        let err = check_baseline(fewer, &baseline).unwrap_err();
        assert_eq!(err.len(), 1);
        assert!(err[0].contains("L4"));
        // One more does too.
        let mut more = findings.clone();
        more.push(finding(RuleId::Layering, true));
        let err = check_baseline(&more, &baseline).unwrap_err();
        assert!(err[0].contains("L1"));
    }

    #[test]
    fn missing_cell_is_a_failure() {
        let err = check_baseline(&[], "{ \"allowlisted\": { \"L1\": 0 } }").unwrap_err();
        assert!(err.iter().any(|m| m.contains("\"L2\"")));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let json = render_json(&[finding(RuleId::PanicPolicy, false)], &RuleId::ALL, None);
        assert!(json.contains("msg with \\\"quotes\\\""));
        assert!(json.contains("\"determinism\": null"));
    }
}
