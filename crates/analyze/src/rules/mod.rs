//! The rule engine: rule identities, findings, shared token-stream
//! utilities, and the allowlist ratchet.
//!
//! Each rule is a pure function from the lexed [`Workspace`] to a list
//! of [`Finding`]s. Rules are independently toggleable from the CLI
//! (`--rules L1,L4`); `--rules all` runs every one.

use crate::lexer::{LexFile, Tok, TokKind};
use crate::workspace::Workspace;

pub mod gates;
pub mod layering;
pub mod panics;

/// The three workspace rules. The codes L3, L5 and L6 are retired: the
/// root manifest's `[workspace.lints]` table enforces them through rustc
/// and clippy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// L1 — crate-layering DAG and `[lints] workspace = true` per member.
    Layering,
    /// L2 — panic policy (`unwrap`/`expect`/`panic!` in library code).
    PanicPolicy,
    /// L4 — bench-gate coverage (baseline JSON + ci.sh + README row).
    GateCoverage,
}

impl RuleId {
    /// All rules, in code order.
    pub const ALL: [RuleId; 3] = [RuleId::Layering, RuleId::PanicPolicy, RuleId::GateCoverage];

    /// The short code (`L1`, `L2`, `L4`).
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            RuleId::Layering => "L1",
            RuleId::PanicPolicy => "L2",
            RuleId::GateCoverage => "L4",
        }
    }

    /// The human name used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::Layering => "layering",
            RuleId::PanicPolicy => "panic-policy",
            RuleId::GateCoverage => "gate-coverage",
        }
    }

    /// Parses `L1`, `L2` or `L4` (case-insensitive).
    #[must_use]
    pub fn from_code(code: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.code().eq_ignore_ascii_case(code))
    }

    /// Runs this rule over the workspace.
    #[must_use]
    pub fn run(self, ws: &Workspace) -> Vec<Finding> {
        match self {
            RuleId::Layering => layering::check(ws),
            RuleId::PanicPolicy => panics::check(ws),
            RuleId::GateCoverage => gates::check(ws),
        }
    }
}

/// One diagnostic: rule, location, message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Path relative to the workspace root.
    pub path: String,
    /// 1-based line (0 when the finding is about a whole file or a
    /// missing artifact).
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
    /// Set by the allowlist pass: `true` for grandfathered findings.
    pub allowlisted: bool,
}

impl Finding {
    /// A finding at `path:line`.
    #[must_use]
    pub fn new(rule: RuleId, path: impl Into<String>, line: usize, message: String) -> Finding {
        Finding {
            rule,
            path: path.into(),
            line,
            message,
            allowlisted: false,
        }
    }

    /// `path:line: [L2 panic-policy] message` (line elided when 0).
    #[must_use]
    pub fn render(&self) -> String {
        let loc = if self.line == 0 {
            self.path.clone()
        } else {
            format!("{}:{}", self.path, self.line)
        };
        format!(
            "{loc}: [{} {}] {}",
            self.rule.code(),
            self.rule.name(),
            self.message
        )
    }
}

/// Runs `rules` in order and returns all findings, sorted by
/// (rule, path, line) for stable output.
#[must_use]
pub fn run_rules(ws: &Workspace, rules: &[RuleId]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for rule in rules {
        findings.extend(rule.run(ws));
    }
    findings.sort_by(|a, b| {
        (a.rule, &a.path, a.line, &a.message).cmp(&(b.rule, &b.path, b.line, &b.message))
    });
    findings
}

// ---------------------------------------------------------------------
// Allowlist: the grandfathering ratchet.
// ---------------------------------------------------------------------

/// One allowlist entry: up to `count` findings of `rule` in `path` are
/// grandfathered. Counts ratchet *down*: fixing a finding and leaving
/// the entry produces a stale-entry warning, and the baseline gate
/// pins the total so it cannot silently creep back up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry applies to.
    pub rule: RuleId,
    /// File path relative to the workspace root.
    pub path: String,
    /// Number of findings grandfathered in that file.
    pub count: usize,
}

/// The parsed allowlist plus any parse warnings.
#[derive(Debug, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
    /// Malformed lines, reported but not fatal.
    pub warnings: Vec<String>,
}

impl Allowlist {
    /// Parses the allowlist format: one entry per line,
    /// `<rule> <path> <count>`, `#` comments and blank lines ignored.
    #[must_use]
    pub fn parse(text: &str) -> Allowlist {
        let mut list = Allowlist::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                [rule, path, count] => RuleId::from_code(rule).and_then(|r| {
                    count.parse::<usize>().ok().map(|c| AllowEntry {
                        rule: r,
                        path: (*path).to_string(),
                        count: c,
                    })
                }),
                _ => None,
            };
            match parsed {
                Some(entry) => list.entries.push(entry),
                None => list.warnings.push(format!(
                    "allowlist line {} is malformed (want `<rule> <path> <count>`): {line}",
                    idx + 1
                )),
            }
        }
        list
    }

    /// Marks up to `count` findings per `(rule, path)` as allowlisted,
    /// in line order. Returns warnings for stale entries (fewer findings
    /// than grandfathered — time to ratchet the entry down).
    #[must_use]
    pub fn apply(&self, findings: &mut [Finding]) -> Vec<String> {
        let mut warnings = self.warnings.clone();
        for entry in &self.entries {
            let mut remaining = entry.count;
            let mut matched = 0usize;
            for f in findings.iter_mut() {
                if f.rule == entry.rule && f.path == entry.path {
                    matched += 1;
                    if remaining > 0 {
                        f.allowlisted = true;
                        remaining -= 1;
                    }
                }
            }
            if matched < entry.count {
                warnings.push(format!(
                    "stale allowlist entry: {} {} grandfathers {} finding(s) but only {} remain — ratchet it down",
                    entry.rule.code(),
                    entry.path,
                    entry.count,
                    matched
                ));
            }
        }
        warnings
    }
}

// ---------------------------------------------------------------------
// Shared token-stream utilities.
// ---------------------------------------------------------------------

/// Token-index ranges (inclusive start, exclusive end) of `#[…]` and
/// `#![…]` attributes.
#[must_use]
pub fn attr_ranges(lex: &LexFile) -> Vec<(usize, usize)> {
    let toks = &lex.tokens;
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#') {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_punct('!') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('[') {
                let end = match_bracket(toks, j, '[', ']');
                ranges.push((i, end));
                i = end;
                continue;
            }
        }
        i += 1;
    }
    ranges
}

/// Token-index ranges of `#[cfg(test)] mod … { … }` bodies (any `cfg`
/// attribute whose argument list mentions the `test` flag counts, so
/// `cfg(all(test, …))` is covered too).
#[must_use]
pub fn test_mod_ranges(lex: &LexFile) -> Vec<(usize, usize)> {
    let toks = &lex.tokens;
    let mut ranges = Vec::new();
    for (start, end) in attr_ranges(lex) {
        let body = &toks[start..end];
        let is_cfg_test =
            body.iter().any(|t| t.is_ident("cfg")) && body.iter().any(|t| t.is_ident("test"));
        if !is_cfg_test {
            continue;
        }
        // Skip further attributes / doc comments between the cfg and the
        // item it gates.
        let mut i = end;
        loop {
            if i >= toks.len() {
                break;
            }
            if toks[i].is_punct('#') {
                let j = i + 1;
                if j < toks.len() && toks[j].is_punct('[') {
                    i = match_bracket(toks, j, '[', ']');
                    continue;
                }
            }
            if matches!(toks[i].kind, TokKind::DocOuter | TokKind::DocInner) {
                i += 1;
                continue;
            }
            break;
        }
        if i < toks.len() && toks[i].is_ident("mod") {
            // mod <name> { … }
            let mut j = i + 1;
            while j < toks.len() && !toks[j].is_punct('{') && !toks[j].is_punct(';') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('{') {
                let close = match_bracket(toks, j, '{', '}');
                ranges.push((i, close));
            }
        }
    }
    ranges
}

/// `true` when token index `i` falls inside any of `ranges`.
#[must_use]
pub fn in_ranges(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(s, e)| i >= s && i < e)
}

/// The index just past the bracket group opening at `open_idx` (which
/// must hold `open`). Tolerates unbalanced input by running to the end.
#[must_use]
pub fn match_bracket(toks: &[Tok], open_idx: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = open_idx;
    while i < toks.len() {
        if toks[i].is_punct(open) {
            depth += 1;
        } else if toks[i].is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    toks.len()
}
