//! The fault/scenario layer in action: broadcast and gossip under token
//! loss, node dropout, and dynamic root reassignment — every run replayed
//! bit-identically from its recorded fault log.
//!
//! ```text
//! cargo run --release --example fault_scenarios
//! ```

use treecast::adversary::{
    beam_search_workload_plan, BeamOptions, MinDisseminated, StructuredPool,
};
use treecast::core::{
    run_workload_faulty, Broadcast, FaultModel, FaultSchedule, Gossip, NoFaults, RotatingRoot,
    SeededFaults, SequenceSource, SimulationConfig, StaticSource, Workload,
};
use treecast::trees::generators;

fn main() {
    let n = 16;
    let cfg = SimulationConfig::for_n(n);

    println!("== fault scenarios on the static path (broadcast) ==\n");
    println!(
        "{:>42} {:>8} {:>14} {:>10}",
        "faults", "rounds", "faulty rounds", "replay"
    );
    let models: Vec<Box<dyn FaultModel>> = vec![
        Box::new(NoFaults),
        Box::new(SeededFaults::new(1).with_token_loss(15)),
        Box::new(SeededFaults::new(1).with_dropout(10, 3)),
        Box::new(RotatingRoot::new(3)),
        Box::new(
            SeededFaults::new(1)
                .with_token_loss(10)
                .with_dropout(10, 2)
                .with_root_changes(20),
        ),
    ];
    for mut model in models {
        let name = model.name();
        let run = |faults: &mut dyn FaultModel| {
            let mut src = StaticSource::new(generators::path(n));
            run_workload_faulty(n, &mut src, &Broadcast, faults, cfg)
        };
        let report = run(model.as_mut());
        // Replay the recorded log: the outcome must be bit-identical.
        let mut replay = FaultSchedule::replay(&report.fault_log);
        let rerun = run(&mut replay);
        let identical =
            rerun.completion_time == report.completion_time && rerun.fault_log == report.fault_log;
        assert!(identical, "replay diverged under {name}");
        println!(
            "{:>42} {:>8} {:>14} {:>10}",
            name,
            report
                .completion_time
                .map(|t| t.to_string())
                .unwrap_or_else(|| ">cap".into()),
            report.fault_log.iter().filter(|f| !f.is_quiet()).count(),
            "identical"
        );
    }

    println!("\n== workload-aware beam vs faults (gossip, rotating stars) ==\n");
    // An offline gossip-delaying beam plan, then the same schedule under a
    // lossy network: faults can only make the adversary's life easier.
    let mut options = BeamOptions::for_n(n).with_width(4);
    options.max_rounds = cfg.max_rounds;
    let plan = beam_search_workload_plan(
        n,
        &mut StructuredPool::new(),
        &MinDisseminated::default(),
        &Gossip,
        options,
    );
    let mut src = SequenceSource::new(plan.clone());
    let clean = run_workload_faulty(n, &mut src, &Gossip, &mut NoFaults, cfg);
    let mut src = SequenceSource::new(plan);
    let mut lossy = SeededFaults::new(7).with_token_loss(20);
    let faulty = run_workload_faulty(n, &mut src, &Gossip, &mut lossy, cfg);
    let show = |r: &treecast::core::WorkloadReport| {
        r.completion_time
            .map(|t| t.to_string())
            .unwrap_or_else(|| ">cap".into())
    };
    println!("  beam plan, fault-free : rounds = {}", show(&clean));
    println!("  beam plan, 20% loss   : rounds = {}", show(&faulty));
    assert!(
        faulty.completion_time.unwrap_or(u64::MAX) >= clean.completion_time.unwrap_or(u64::MAX),
        "token loss must never speed gossip up"
    );
    println!(
        "\nAll scenario replays identical; {} runs green.",
        Gossip.name()
    );
}
