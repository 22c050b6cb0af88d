//! `treecast-analyze` — the workspace invariant linter and
//! concurrency-determinism auditor.
//!
//! Two halves, one binary (`analyze`):
//!
//! * **The lexical pass** (`analyze --rules all`) walks every crate in
//!   the workspace with a hand-rolled lexer ([`lexer`]) and manifest
//!   reader ([`manifest`]) — no `syn`, no `toml`, no dependencies — and
//!   enforces three structural rules ([`rules`]):
//!
//!   | code | rule |
//!   |------|------|
//!   | L1 | crate-layering DAG; every member sets `[lints] workspace = true` |
//!   | L2 | panic policy in library code |
//!   | L4 | bench-gate coverage (baseline + ci.sh + README row) |
//!
//!   The retired codes L3 (unsafe hygiene), L5 (cfg/feature hygiene)
//!   and L6 (doc coverage) are lints now: `unsafe_code`,
//!   `unsafe_op_in_unsafe_fn`, `unexpected_cfgs`, `missing_docs` and
//!   clippy's `undocumented_unsafe_blocks`, set once in the root
//!   manifest's `[workspace.lints]` table.
//!
//!   Findings print as `path:line: [L2 panic-policy] …` and land in
//!   `results/ANALYZE.json` ([`report`]). Pre-existing findings are
//!   grandfathered by the `analyze.allow` count-ratchet
//!   ([`rules::Allowlist`]); the baseline gate pins allowlisted counts
//!   exactly so they can only go down.
//!
//! * **The determinism audit** (`analyze --determinism`,
//!   [`determinism`]) drives the four threaded subsystems across
//!   thread counts {1, 2, 4, 8} on seeded inputs and fails on any
//!   deviation from the single-threaded reference, exercising the
//!   workspace's `debug_validate` invariant checkers along the way.

pub mod determinism;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod workspace;

pub use determinism::DeterminismReport;
pub use rules::{run_rules, Allowlist, Finding, RuleId};
pub use workspace::Workspace;
