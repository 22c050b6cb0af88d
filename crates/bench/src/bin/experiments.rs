//! Experiment harness: regenerates every table/figure of the paper.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin experiments -- <id> [--full] [--out DIR]
//! ```
//!
//! `<id>` is one of `treecast_bench::experiments::IDS` (the usage line
//! lists them), `all` running every experiment. Quick grids are the
//! default; `--full` switches to the paper-scale grids. Tables print to stdout and are
//! written as CSV under `--out` (default `results/`).

use std::path::PathBuf;
use std::process::ExitCode;

use treecast_bench::experiments::{run_by_id, IDS};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut id: Option<String> = None;
    let mut full = false;
    let mut out_dir = PathBuf::from("results");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory argument");
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other if id.is_none() && IDS.contains(&other) => id = Some(other.to_string()),
            other => {
                eprintln!("unknown argument {other:?}");
                print_usage();
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(id) = id else {
        print_usage();
        return ExitCode::FAILURE;
    };

    let started = std::time::Instant::now();
    let outputs = run_by_id(&id, !full);
    for output in &outputs {
        println!("{}", output.render());
        for (name, table) in &output.tables {
            match table.write_csv(&out_dir, name) {
                Ok(path) => println!("wrote {}", path.display()),
                Err(e) => eprintln!("failed to write {name}: {e}"),
            }
        }
        println!();
    }
    println!(
        "done: {} experiment(s) in {:.1}s ({})",
        outputs.len(),
        started.elapsed().as_secs_f64(),
        if full { "full grids" } else { "quick grids" },
    );
    ExitCode::SUCCESS
}

fn print_usage() {
    eprintln!(
        "usage: experiments <id> [--full] [--out DIR]\n       ids: {}",
        IDS.join(" ")
    );
}
