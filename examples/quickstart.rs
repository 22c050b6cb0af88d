//! Quickstart: the model in one screen.
//!
//! Builds the Section 2 intuition — the static path takes exactly `n − 1`
//! rounds, a star floods instantly, and Theorem 3.1's window brackets
//! everything an adversary can do.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    reason = "an example aborts loudly on an impossible state rather than threading errors through its narrative"
)]

use treecast::core::{bounds, run_workload, Broadcast, SimulationConfig, StaticSource};
use treecast::trees::generators;

fn main() {
    let n = 12;
    println!("broadcast in dynamic rooted trees, n = {n} processes\n");

    // A static path: information crawls one hop per round.
    let mut path = StaticSource::new(generators::path(n));
    let report = run_workload(n, &mut path, &Broadcast, SimulationConfig::for_n(n));
    println!(
        "static path      : broadcast after {:>3} rounds (expected n − 1 = {})",
        report.broadcast_time.expect("path always broadcasts"),
        n - 1
    );

    // A static star: the center reaches everyone in one round.
    let mut star = StaticSource::new(generators::star(n));
    let report = run_workload(n, &mut star, &Broadcast, SimulationConfig::for_n(n));
    println!(
        "static star      : broadcast after {:>3} rounds",
        report.broadcast_time.expect("star broadcasts instantly")
    );

    // The theorem's window for the worst case over ALL tree sequences.
    println!(
        "\nTheorem 3.1      : {} ≤ t*(T_{n}) ≤ {}",
        bounds::lower_bound(n as u64),
        bounds::upper_bound(n as u64),
    );
    println!(
        "prior bounds     : n² = {}, n·log n = {}, 2n·loglog n + 2n = {}",
        bounds::upper_trivial(n as u64),
        bounds::upper_n_log_n(n as u64),
        bounds::upper_n_loglog_n(n as u64),
    );

    // A strong adversary lands inside the window, above the path.
    let mut adversary = treecast::adversary::SurvivalAdversary::default();
    let report = run_workload(n, &mut adversary, &Broadcast, SimulationConfig::for_n(n));
    println!(
        "\nsurvival greedy  : broadcast after {:>3} rounds — the adversary \
         buys {} extra rounds over the path",
        report.broadcast_time.expect("within theorem bound"),
        report.broadcast_time.unwrap() as i64 - (n as i64 - 1),
    );
}
