//! The one gate document and comparison shared by every `bench_*` bin.
//!
//! Each bin measures, builds one [`GateReport`], writes it to
//! `results/BENCH_<bench>.json` and, under `--check <baseline>`,
//! compares it against the checked-in baseline with [`check`]:
//!
//! * **exact half** — deterministic keyed integer cells (round counts,
//!   `t*`, estimator counters) must match the baseline with zero
//!   tolerance; this half is *never* skipped, because drift is a
//!   correctness failure. Every baseline cell must be measured; extra
//!   current cells pass (a bench adds rows before its baseline is
//!   regenerated, and `bench_frontier --scale` adds rows the baseline
//!   never gates);
//! * **wall half** — one wall-time statistic may regress by at most
//!   [`REGRESSION_HEADROOM_PERCENT`]; skippable via
//!   `TREECAST_BENCH_GATE=off` for underpowered or loaded hosts. The
//!   baseline must carry the same wall label, so a baseline recorded
//!   for another shape fails instead of comparing unlike numbers.
//!
//! [`check`] returns a [`Verdict`] instead of exiting, so the pass/fail
//! logic is unit-testable; [`finish`] is the bins' shared epilogue that
//! prints the verdict and exits nonzero on failure.

use std::time::Instant;

use serde::{Deserialize, Error, Serialize, Value};

/// Allowed slowdown of any gated wall-time statistic against its
/// checked-in baseline, in percent.
pub const REGRESSION_HEADROOM_PERCENT: u32 = 25;

/// The environment variable that disables the wall half of every gate.
pub const GATE_ENV_VAR: &str = "TREECAST_BENCH_GATE";

/// The document every bench writes to `results/BENCH_<bench>.json` —
/// and every checked-in `results/BENCH_<bench>_baseline.json` is.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct GateReport {
    /// The bench's name, the `<bench>` of its file name.
    pub bench: String,
    /// The exact half: deterministic cells, compared with zero tolerance.
    pub exact: ExactCells,
    /// The wall half: one timing statistic, compared at +25%.
    pub wall: Wall,
    /// The bench's own measurement rows (its derived row structs).
    /// Informational: [`check`] never reads it.
    pub info: Value,
}

/// The gated wall-time statistic of a [`GateReport`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Wall {
    /// What was timed, shape included (`tracked_step n=1024 k=8`).
    pub label: String,
    /// The statistic, in `unit`.
    pub value: f64,
    /// The unit of `value` (`ns/round`, `ms`, …).
    pub unit: String,
}

/// Keyed integer cells in measurement order, serialized as one JSON
/// object `{"<key>": value, …}`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExactCells(pub Vec<(String, i64)>);

impl FromIterator<(String, i64)> for ExactCells {
    fn from_iter<I: IntoIterator<Item = (String, i64)>>(cells: I) -> Self {
        ExactCells(cells.into_iter().collect())
    }
}

impl Serialize for ExactCells {
    fn to_value(&self) -> Value {
        Value::object(self.0.iter().map(|(key, v)| (key.clone(), v.to_value())))
    }
}

impl Deserialize for ExactCells {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(key, v)| Ok((key.clone(), i64::from_value(v)?)))
                .collect(),
            _ => Err(Error::msg("`exact` must be an object of integer cells")),
        }
    }
}

/// The exact cell of a possibly capped run: its completion round, or
/// `-1` when the capped run did not complete.
#[must_use]
pub fn rounds_cell(rounds: Option<u64>) -> i64 {
    rounds.map_or(-1, |t| t as i64)
}

/// What one [`check`] found: the lines to print and the failures.
#[derive(Debug, Default, PartialEq)]
pub struct Verdict {
    /// "gate ok" and skip notes, printed to stdout.
    pub passed: Vec<String>,
    /// One message per failure, printed to stderr; any fails the gate.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Files one pass/fail outcome.
    pub fn record(&mut self, outcome: Result<String, String>) {
        match outcome {
            Ok(line) => self.passed.push(line),
            Err(failure) => self.failures.push(failure),
        }
    }
}

/// Extracts the `--check <baseline>` argument pair.
///
/// # Panics
///
/// Panics if `--check` is present without a following path — the same
/// hard failure every bin wants.
pub fn check_arg(args: &[String]) -> Option<String> {
    args.iter().position(|a| a == "--check").map(|i| {
        args.get(i + 1)
            .expect("--check needs a baseline path")
            .clone()
    })
}

/// `true` when `TREECAST_BENCH_GATE=off` asks for the wall half to be
/// skipped. The exact half ignores this switch by design.
pub fn wall_gate_disabled() -> bool {
    std::env::var(GATE_ENV_VAR).as_deref() == Ok("off")
}

/// The exact half: every `(key, value)` cell of the baseline must be
/// present in `current` with the identical value.
///
/// Returns the number of compared cells, or one message per mismatch /
/// missing cell. Cells present in `current` but absent from the baseline
/// are allowed; the reverse is a failure, so a bench cannot silently
/// stop measuring a gated cell.
///
/// # Errors
///
/// One human-readable message per baseline cell that is missing from
/// `current` or differs from it.
fn exact_gate(current: &ExactCells, baseline: &ExactCells) -> Result<usize, Vec<String>> {
    let mut failures = Vec::new();
    for (key, base) in &baseline.0 {
        match current.0.iter().find(|(k, _)| k == key) {
            Some((_, now)) if now == base => {}
            Some((_, now)) => failures.push(format!(
                "MISMATCH: {key:?} measured {now}, baseline {base} \
                 (exact gate, no tolerance)"
            )),
            None => failures.push(format!("MISSING: baseline cell {key:?} not measured")),
        }
    }
    if failures.is_empty() {
        Ok(baseline.0.len())
    } else {
        Err(failures)
    }
}

/// The wall half: `now` may exceed `base` by at most
/// [`REGRESSION_HEADROOM_PERCENT`]; `base` is in `now`'s unit.
///
/// Returns the "gate ok" line to print, or the regression report.
///
/// # Errors
///
/// The `REGRESSION: …` message when `now` is past the limit.
fn wall_gate(now: &Wall, base: f64) -> Result<String, String> {
    let limit = base * (100.0 + f64::from(REGRESSION_HEADROOM_PERCENT)) / 100.0;
    let show = |v: f64| format!("{v:.1} {}", now.unit);
    if now.value > limit {
        Err(format!(
            "REGRESSION: {} took {}, baseline {} (+{REGRESSION_HEADROOM_PERCENT}% limit {})",
            now.label,
            show(now.value),
            show(base),
            show(limit)
        ))
    } else {
        Ok(format!(
            "gate ok: {} {} within +{REGRESSION_HEADROOM_PERCENT}% of baseline {}",
            now.label,
            show(now.value),
            show(base)
        ))
    }
}

/// Compares `current` against `baseline`: bench name and wall label
/// must agree, then the exact half (always) and the wall half (unless
/// [`wall_gate_disabled`]).
pub fn check(current: &GateReport, baseline: &GateReport) -> Verdict {
    let mut verdict = Verdict::default();
    let same_shape = current.bench == baseline.bench
        && current.wall.label == baseline.wall.label
        && current.wall.unit == baseline.wall.unit;
    if !same_shape {
        verdict.failures.push(format!(
            "MISMATCH: measured {} `{}` ({}), baseline {} `{}` ({}) — \
             the baseline records another bench or shape",
            current.bench,
            current.wall.label,
            current.wall.unit,
            baseline.bench,
            baseline.wall.label,
            baseline.wall.unit
        ));
    }
    match exact_gate(&current.exact, &baseline.exact) {
        Ok(cells) => verdict.passed.push(format!(
            "gate ok: all {cells} exact {} cells match the baseline",
            current.bench
        )),
        Err(failures) => verdict.failures.extend(failures),
    }
    if wall_gate_disabled() {
        verdict
            .passed
            .push(format!("{GATE_ENV_VAR}=off: skipping the wall-time gate"));
    } else if same_shape {
        verdict.record(wall_gate(&current.wall, baseline.wall.value));
    }
    verdict
}

/// Writes `report` to `results/BENCH_<bench>.json`.
///
/// # Panics
///
/// On an I/O failure.
pub fn write(report: &GateReport) {
    let path = format!("results/BENCH_{}.json", report.bench);
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write(&path, serde::json::to_string_pretty(report) + "\n")
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
}

/// The `--check <baseline>` document, when one was asked for.
///
/// # Panics
///
/// If the baseline is unreadable or not a [`GateReport`].
pub fn baseline(args: &[String]) -> Option<GateReport> {
    let path = check_arg(args)?;
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    Some(
        serde::json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {path}: {e}")),
    )
}

/// Prints `verdict` and exits nonzero if anything failed.
pub fn enforce(verdict: &Verdict) {
    for line in &verdict.passed {
        println!("{line}");
    }
    for failure in &verdict.failures {
        eprintln!("{failure}");
    }
    if !verdict.failures.is_empty() {
        std::process::exit(1);
    }
}

/// The bins' shared epilogue: [`write()`] the report, then under
/// `--check <baseline>` [`check`] it and [`enforce`] the verdict.
pub fn finish(report: &GateReport, args: &[String]) {
    write(report);
    if let Some(baseline) = baseline(args) {
        enforce(&check(report, &baseline));
    }
}

/// Best (minimum) batch-mean ns per call of `f`: warm up, size batches to
/// ~1 ms, time `samples` of them, keep the fastest.
///
/// The minimum is the right statistic for a CI gate on a shared host:
/// background load can only make a batch slower, never faster, so the
/// fastest batch approximates the true cost and the gate does not flake
/// when the machine is busy.
pub fn best_ns<F: FnMut()>(mut f: F, samples: usize) -> f64 {
    // Warm-up and batch sizing: aim for ~1 ms per sample.
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed().as_millis() < 50 {
        f();
        calls += 1;
        if calls >= 1000 {
            break;
        }
    }
    let per_call = (start.elapsed().as_nanos() / u128::from(calls)).max(1);
    let batch = (1_000_000 / per_call).clamp(1, 10_000) as u32;

    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t.elapsed().as_nanos() as f64 / f64::from(batch));
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(pairs: &[(&str, i64)]) -> ExactCells {
        pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
    }

    fn wall(label: &str, value: f64) -> Wall {
        Wall {
            label: label.into(),
            value,
            unit: "ns".into(),
        }
    }

    fn report(exact: &[(&str, i64)], label: &str) -> GateReport {
        GateReport {
            bench: "probe".into(),
            exact: cells(exact),
            wall: wall(label, 100.0),
            info: Value::Null,
        }
    }

    #[test]
    fn check_arg_extracts_the_path() {
        let args: Vec<String> = ["--quick", "--check", "results/base.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(check_arg(&args), Some("results/base.json".into()));
        assert_eq!(check_arg(&args[..1]), None);
    }

    #[test]
    #[should_panic(expected = "--check needs a baseline path")]
    fn check_arg_rejects_a_trailing_flag() {
        check_arg(&["--check".to_string()]);
    }

    #[test]
    fn exact_gate_passes_on_identical_cells() {
        let exact = cells(&[("broadcast/n=16", 15), ("gossip/n=16", -1)]);
        assert_eq!(exact_gate(&exact, &exact), Ok(2));
        // The whole document: identical reports pass, and survive JSON.
        let doc = report(&[("broadcast/n=16", 15), ("gossip/n=16", -1)], "x");
        let text = serde::json::to_string_pretty(&doc);
        let back: GateReport = serde::json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert!(text.contains("\"exact\": {\n    \"broadcast/n=16\": 15,"));
        let verdict = check(&doc, &back);
        assert!(verdict.failures.is_empty(), "{verdict:?}");
        assert!(verdict.passed[0].contains("all 2 exact probe cells"));
    }

    #[test]
    fn exact_gate_allows_extra_current_cells() {
        let current = cells(&[("a", 10), ("b", 20)]);
        let baseline = cells(&[("a", 10)]);
        assert_eq!(exact_gate(&current, &baseline), Ok(1));
        let verdict = check(
            &report(&[("a", 10), ("b", 20)], "x"),
            &report(&[("a", 10)], "x"),
        );
        assert!(verdict.failures.is_empty(), "{verdict:?}");
    }

    #[test]
    fn exact_gate_reports_every_mismatch_and_missing_cell() {
        let current = cells(&[("a", 10), ("b", 99)]);
        let baseline = cells(&[("a", 10), ("b", 20), ("c", 30)]);
        let failures = exact_gate(&current, &baseline).unwrap_err();
        assert_eq!(failures.len(), 2);
        assert!(failures[0].contains("MISMATCH"));
        assert!(failures[0].contains("measured 99"));
        assert!(failures[1].contains("MISSING"));
        // A baseline cell the current report lacks fails the document.
        let verdict = check(
            &report(&[("a", 10)], "x"),
            &report(&[("a", 10), ("c", 30)], "x"),
        );
        assert_eq!(verdict.failures.len(), 1);
        assert!(verdict.failures[0].contains("MISSING: baseline cell \"c\""));
    }

    #[test]
    fn exact_gate_has_zero_tolerance() {
        // Even an off-by-one on a single cell fails the gate.
        let failures = exact_gate(&cells(&[("x", 101)]), &cells(&[("x", 100)])).unwrap_err();
        assert_eq!(failures.len(), 1);
    }

    #[test]
    fn wall_gate_boundary_is_exactly_plus_25_percent() {
        // 125.0 is the limit itself: inside the gate.
        assert!(wall_gate(&wall("x", 125.0), 100.0).is_ok());
        // Just past it: regression.
        let report = wall_gate(&wall("x", 125.1), 100.0).unwrap_err();
        assert!(report.contains("REGRESSION"));
        assert!(
            report.contains("125.1 ns"),
            "formatted with the unit: {report}"
        );
        // Faster than baseline is always fine.
        assert!(wall_gate(&wall("x", 10.0), 100.0).is_ok());
    }

    #[test]
    fn wall_gate_messages_carry_the_label() {
        let ok = wall_gate(&wall("compose_into/1024", 100.0), 100.0).unwrap();
        assert!(ok.contains("compose_into/1024"));
        assert!(ok.starts_with("gate ok"));
        // A baseline recorded under another label fails, exact cells
        // and all — whatever the wall switch says.
        let verdict = check(&report(&[], "solve/6"), &report(&[], "solve/7"));
        assert_eq!(verdict.failures.len(), 1, "{verdict:?}");
        assert!(verdict.failures[0].contains("`solve/6`"));
        assert!(verdict.failures[0].contains("`solve/7`"));
    }

    #[test]
    fn best_ns_is_positive_and_finite() {
        let mut x = 0u64;
        let ns = best_ns(
            || {
                x = x.wrapping_add(1);
                std::hint::black_box(x);
            },
            3,
        );
        assert!(ns.is_finite() && ns > 0.0);
    }
}
