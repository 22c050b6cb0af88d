//! Round-application microbenches on `BroadcastState`: the column-view
//! tree round the dense engine steps, and the scratch-buffered non-tree
//! round the nonsplit runs step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use treecast_core::BroadcastState;
use treecast_nonsplit::generators as nonsplit_gen;
use treecast_trees::random;

fn bench_apply_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply_tree");
    let mut rng = StdRng::seed_from_u64(3);
    for n in [64usize, 256, 1024] {
        let tree = random::uniform(n, &mut rng);
        let mut state = BroadcastState::new(n);
        // Warm the state so rows are non-trivial.
        for _ in 0..4 {
            state.apply(&random::uniform(n, &mut rng));
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                let mut s = state.clone();
                s.apply(&tree);
                s.edge_count()
            });
        });
    }
    group.finish();
}

/// One non-tree round through `BroadcastState::apply_matrix` — the
/// scratch-buffer double-buffering this measures used to be a
/// `transpose()` plus n fresh bitset allocations per round.
fn bench_apply_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("state_apply_matrix");
    for n in [64usize, 256, 1024] {
        let round = nonsplit_gen::grid(n);
        let mut state = BroadcastState::new(n);
        // Warm to steady state: the heard sets saturate and the scratch
        // buffer is allocated, so the loop below measures pure word work.
        for _ in 0..4 {
            state.apply_matrix(&round);
        }
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| {
                state.apply_matrix(&round);
                state.edge_count()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apply_tree, bench_apply_matrix);
criterion_main!(benches);
