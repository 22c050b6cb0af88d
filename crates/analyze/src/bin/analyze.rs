//! The `analyze` CLI: lexical rules, allowlist ratchet, baseline gate,
//! determinism audit.
//!
//! ```text
//! analyze [--root DIR] [--rules all|L1,L2,…] [--determinism]
//!         [--allowlist FILE] [--json FILE] [--check FILE]
//!         [--write-baseline FILE]
//! ```
//!
//! Defaults: `--root .`, `--rules all`, allowlist `<root>/analyze.allow`
//! (when present), JSON report `<root>/results/ANALYZE.json`.
//!
//! Exit codes: `0` clean, `1` findings / determinism mismatch / baseline
//! mismatch, `2` usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use treecast_analyze::report;
use treecast_analyze::rules::run_rules;
use treecast_analyze::{Allowlist, DeterminismReport, RuleId, Workspace};

struct Options {
    root: PathBuf,
    rules: Vec<RuleId>,
    determinism: bool,
    allowlist: Option<PathBuf>,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn usage() -> String {
    "usage: analyze [--root DIR] [--rules all|L1,L2,…] [--determinism]\n\
     \x20              [--allowlist FILE] [--json FILE] [--check FILE]\n\
     \x20              [--write-baseline FILE]"
        .to_string()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        rules: Vec::new(),
        determinism: false,
        allowlist: None,
        json: None,
        check: None,
        write_baseline: None,
    };
    let mut ran_rules = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match arg.as_str() {
            "--root" => opts.root = PathBuf::from(value("--root")?),
            "--rules" => {
                ran_rules = true;
                let spec = value("--rules")?;
                if spec.eq_ignore_ascii_case("all") {
                    opts.rules = RuleId::ALL.to_vec();
                } else {
                    for code in spec.split(',') {
                        let rule = RuleId::from_code(code.trim())
                            .ok_or_else(|| format!("unknown rule `{code}` (want L1, L2 or L4)"))?;
                        if !opts.rules.contains(&rule) {
                            opts.rules.push(rule);
                        }
                    }
                }
            }
            "--determinism" => opts.determinism = true,
            "--allowlist" => opts.allowlist = Some(PathBuf::from(value("--allowlist")?)),
            "--json" => opts.json = Some(PathBuf::from(value("--json")?)),
            "--check" => opts.check = Some(PathBuf::from(value("--check")?)),
            "--write-baseline" => {
                opts.write_baseline = Some(PathBuf::from(value("--write-baseline")?));
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    // Bare `analyze` means "all rules"; bare `analyze --determinism`
    // runs only the audit (the lexical pass has its own CI step).
    if !ran_rules && !opts.determinism {
        opts.rules = RuleId::ALL.to_vec();
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let ws = match Workspace::load(&opts.root) {
        Ok(ws) => ws,
        Err(err) => {
            eprintln!(
                "analyze: cannot load workspace at {}: {err}",
                opts.root.display()
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "analyze: {} crates, {} source files under {}",
        ws.crates.len(),
        ws.crates.iter().map(|c| c.files.len()).sum::<usize>(),
        opts.root.display()
    );

    let mut findings = run_rules(&ws, &opts.rules);

    // Allowlist: explicit path, or `<root>/analyze.allow` when present.
    // Skipped when no rules ran (a determinism-only run has no findings,
    // so every entry would look stale).
    let allow_path = opts
        .allowlist
        .clone()
        .filter(|_| !opts.rules.is_empty())
        .or_else(|| {
            let default = opts.root.join("analyze.allow");
            (!opts.rules.is_empty() && default.is_file()).then_some(default)
        });
    if let Some(path) = &allow_path {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let allowlist = Allowlist::parse(&text);
                for warning in allowlist.apply(&mut findings) {
                    eprintln!("analyze: warning: {warning}");
                }
            }
            Err(err) => {
                eprintln!("analyze: cannot read allowlist {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = false;
    let live: Vec<_> = findings.iter().filter(|f| !f.allowlisted).collect();
    for f in &live {
        println!("{}", f.render());
    }
    let allowlisted = findings.len() - live.len();
    println!(
        "analyze: rules [{}]: {} finding(s), {} allowlisted",
        opts.rules
            .iter()
            .map(|r| r.code())
            .collect::<Vec<_>>()
            .join(","),
        live.len(),
        allowlisted
    );
    if !live.is_empty() {
        failed = true;
    }

    let determinism = if opts.determinism {
        let audit = DeterminismReport::run();
        print!("{}", audit.render_text());
        if !audit.passed() {
            failed = true;
        }
        Some(audit)
    } else {
        None
    };

    // The JSON report: explicit path, or `<root>/results/ANALYZE.json`
    // when the results directory exists (ci.sh guarantees it does).
    let json_path = opts.json.clone().or_else(|| {
        let dir = opts.root.join("results");
        dir.is_dir().then(|| dir.join("ANALYZE.json"))
    });
    if let Some(path) = &json_path {
        let json = report::render_json(&findings, &opts.rules, determinism.as_ref());
        if let Err(err) = std::fs::write(path, json) {
            eprintln!("analyze: cannot write report {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!("analyze: report written to {}", path.display());
    }

    if let Some(path) = &opts.write_baseline {
        if let Err(err) = std::fs::write(path, report::render_baseline(&findings)) {
            eprintln!("analyze: cannot write baseline {}: {err}", path.display());
            return ExitCode::from(2);
        }
        println!("analyze: baseline written to {}", path.display());
    }

    if let Some(path) = &opts.check {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                if let Err(mismatches) = report::check_baseline(&findings, &text) {
                    for m in &mismatches {
                        eprintln!("analyze: baseline mismatch: {m}");
                    }
                    failed = true;
                } else {
                    println!("analyze: baseline {} … ok", path.display());
                }
            }
            Err(err) => {
                eprintln!("analyze: cannot read baseline {}: {err}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
