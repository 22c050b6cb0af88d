//! Release-tier validation of the `BeamOptions::for_n` width heuristic on
//! the variant objectives — the width knob had never been measured against
//! the E10 scenario table before this sweep.
//!
//! Run with:
//!
//! ```text
//! cargo test --release --test adversary_width_sweep -- --ignored
//! ```
//!
//! Records a width-vs-quality table into `results/width_sweep.csv` and
//! asserts that width 8 is never worse (for the adversary) than width 2 on
//! any cell of the E10 scenario grid.

use treecast::adversary::{
    beam_search_workload_plan, BeamOptions, MinDisseminated, StructuredPool,
};
use treecast::core::{
    run_workload, Broadcast, Gossip, KBroadcast, SequenceSource, SimulationConfig, Workload,
};

/// The E10 scenario table's workloads at size `n`.
fn grid_workloads(n: usize) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Broadcast),
        Box::new(KBroadcast::new(2)),
        Box::new(KBroadcast::new((n / 2).max(2))),
        Box::new(Gossip),
    ]
}

/// Achieved completion round of a width-`w` beam plan replayed through the
/// workload engine; `None` = the run capped (best case for the adversary).
fn beam_time(n: usize, workload: &dyn Workload, width: usize) -> Option<u64> {
    let cfg = SimulationConfig::for_n(n);
    let mut options = BeamOptions::for_n(n).with_width(width);
    options.max_rounds = cfg.max_rounds;
    let plan = beam_search_workload_plan(
        n,
        &mut StructuredPool::new(),
        &MinDisseminated::default(),
        workload,
        options,
    );
    let mut replay = SequenceSource::new(plan);
    run_workload(n, &mut replay, workload, cfg).completion_time
}

#[test]
#[ignore = "release-tier sweep (~minutes in debug); run via ci.sh release"]
fn width_eight_never_loses_to_width_two_on_the_e10_grid() {
    const WIDTHS: [usize; 5] = [1, 2, 4, 8, 16];
    let mut csv = String::from("workload,n,width,rounds\n");
    let mut failures = Vec::new();

    for n in [16usize, 32, 64] {
        for workload in grid_workloads(n) {
            let mut by_width = Vec::new();
            for width in WIDTHS {
                let t = beam_time(n, workload.as_ref(), width);
                csv.push_str(&format!(
                    "{},{},{},{}\n",
                    workload.name(),
                    n,
                    width,
                    t.map(|t| t as i64).unwrap_or(-1)
                ));
                by_width.push((width, t));
            }
            let rank = |t: Option<u64>| t.unwrap_or(u64::MAX);
            let at = |w: usize| {
                by_width
                    .iter()
                    .find(|(width, _)| *width == w)
                    .expect("width measured")
                    .1
            };
            if rank(at(8)) < rank(at(2)) {
                failures.push(format!(
                    "{} at n = {n}: width 8 achieved {:?} < width 2's {:?}",
                    workload.name(),
                    at(8),
                    at(2)
                ));
            }
        }
    }

    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/width_sweep.csv", &csv).expect("write width_sweep.csv");
    assert!(
        failures.is_empty(),
        "width heuristic regressions:\n{}",
        failures.join("\n")
    );
}
