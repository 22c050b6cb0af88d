//! Compose-kernel measurement harness: times the Definition 2.1 product
//! at the grid of sizes the ROADMAP tracks and emits
//! `results/BENCH_compose.json` with ns/op, edges/s and speedup versus the
//! seed (`Vec<BitSet>`-backed) implementation.
//!
//! ```text
//! cargo run --release -p treecast-bench --bin bench_compose
//! cargo run --release -p treecast-bench --bin bench_compose -- \
//!     --check results/BENCH_compose_baseline.json   # CI regression gate
//! ```
//!
//! With `--check <baseline>` the run exits nonzero if the `n = 1024`
//! composition is more than 25% slower than the checked-in baseline
//! (skippable via `TREECAST_BENCH_GATE=off` for underpowered hosts).

use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_bench::composebench::{gate_report, random_matrix, ComposeMeasurement};
use treecast_bench::gate::{self, best_ns};
use treecast_bitmatrix::BoolMatrix;

/// Sizes measured; must stay in sync with `benches/compose.rs`.
const SIZES: [usize; 3] = [64, 256, 1024];

/// Density (percent) of the measured operands, matching the criterion
/// bench.
const DENSITY_PERCENT: u32 = 10;

/// `boolmatrix_compose` medians of the PR-1 seed implementation
/// (`Vec<BitSet>` per row, allocating `compose`) on this repository's
/// reference machine, ns/op. The ROADMAP quotes 684 µs for n = 1024 from
/// the original seed host; these are the same benches re-measured on the
/// current reference host immediately before the flat rewrite.
const SEED_NS: [(usize, f64); 3] = [(64, 3834.0), (256, 39961.0), (1024, 904202.0)];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    let mut rng = StdRng::seed_from_u64(1);
    let mut rows = Vec::new();
    for n in SIZES {
        let a = random_matrix(n, DENSITY_PERCENT, &mut rng);
        let b = random_matrix(n, DENSITY_PERCENT, &mut rng);
        let mut out = BoolMatrix::zeros(n);
        let ns_per_op = best_ns(
            || {
                a.compose_into(&b, &mut out);
            },
            30,
        );
        let edges = a.edge_count();
        let seed_ns = SEED_NS
            .iter()
            .find(|(sn, _)| *sn == n)
            .map(|(_, ns)| *ns)
            .expect("every size has a seed number");
        rows.push(ComposeMeasurement {
            n,
            ns_per_op,
            edges_per_sec: edges as f64 * 1e9 / ns_per_op,
            seed_ns_per_op: seed_ns,
            speedup_vs_seed: seed_ns / ns_per_op,
        });
        println!(
            "compose_into/{n}: {ns_per_op:.0} ns/op  ({:.2}x vs seed {seed_ns:.0} ns)",
            seed_ns / ns_per_op
        );
    }

    gate::finish(&gate_report(DENSITY_PERCENT, &rows), &args);
}
