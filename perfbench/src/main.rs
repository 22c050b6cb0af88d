//! `treecast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload for about `--seconds` seconds and prints, as its
//! last line, one JSON object: `correct`, `attempted`, `failed` and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A traced run also prints a self-time summary per layer
//! and writes its spans to `<target dir>/traces/<workload>-<seed>.tsv`.

use std::path::PathBuf;
use std::process::ExitCode;

use treecast_perfbench::metrics::{END_TO_END, PER_LAYER};
use treecast_perfbench::trace::Trace;
use treecast_perfbench::workloads::{self, Size, Workload};

const USAGE: &str =
    "usage: treecast-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?}; one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds {value}: need a positive number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: need 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where traces go: the build's target directory, which the repository
/// ignores.
fn trace_path(workload: Workload, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"),
        PathBuf::from,
    );
    target
        .join("traces")
        .join(format!("{}-{seed}.tsv", workload.name()))
}

fn print_self_times(trace: &Trace) {
    let layers = trace.self_s_by_layer();
    let total: f64 = layers.values().sum();
    println!("layer self time (traced):");
    for (layer, s) in &layers {
        println!(
            "  {layer:<16} {s:>10.4} s  {:>5.1}%",
            100.0 * s / total.max(1e-12)
        );
    }
    println!("  {:<16} {total:>10.4} s", "total");
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shape = args.workload.shape(Size::Full);
    let name = args.workload.name();
    let line = if args.trace {
        let (outcome, trace) = workloads::trace(&shape, args.seed, args.seconds);
        print_self_times(&trace);
        let path = trace_path(args.workload, args.seed);
        match trace.write_tsv(&path) {
            Ok(()) => println!(
                "{} spans written to {}",
                trace.spans().len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
        outcome.to_json(PER_LAYER)
    } else {
        workloads::measure(&shape, args.seed, args.seconds).to_json(END_TO_END)
    };
    println!(
        "workload {name}, seed {}, {} worker threads",
        args.seed,
        workloads::threads()
    );
    println!("{line}");
    ExitCode::SUCCESS
}
